package hungarian

import (
	"math"
	"math/rand"
	"testing"
)

func TestMinimizeKnownSquare(t *testing.T) {
	tests := []struct {
		name      string
		cost      [][]float64
		wantTotal float64
	}{
		{
			name:      "1x1",
			cost:      [][]float64{{7}},
			wantTotal: 7,
		},
		{
			name: "classic 3x3",
			cost: [][]float64{
				{4, 1, 3},
				{2, 0, 5},
				{3, 2, 2},
			},
			wantTotal: 5, // (0,1)+(1,0)+(2,2) = 1+2+2
		},
		{
			name: "diagonal best",
			cost: [][]float64{
				{1, 10, 10},
				{10, 1, 10},
				{10, 10, 1},
			},
			wantTotal: 3,
		},
		{
			name: "negative costs",
			cost: [][]float64{
				{-5, 0},
				{0, -5},
			},
			wantTotal: -10,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			match, total, err := minimize(tt.cost)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-tt.wantTotal) > 1e-9 {
				t.Errorf("total = %v, want %v", total, tt.wantTotal)
			}
			assertValidMatching(t, match, len(tt.cost[0]), len(tt.cost))
		})
	}
}

func TestMaximizeKnown(t *testing.T) {
	utility := [][]float64{
		{15, 10},
		{30, 10},
	}
	match, total, err := maximize(utility)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 3 Phase I utilities: user 2 on extender 1 (30) + user 1 on
	// extender 2 (10) beats 15+10.
	if total != 40 {
		t.Errorf("total = %v, want 40", total)
	}
	if match[0] != 1 || match[1] != 0 {
		t.Errorf("match = %v, want [1 0]", match)
	}
}

func TestRectangularMoreRows(t *testing.T) {
	// 3 users, 2 extenders: exactly 2 users matched.
	utility := [][]float64{
		{5, 1},
		{9, 2},
		{3, 8},
	}
	match, total, err := maximize(utility)
	if err != nil {
		t.Fatal(err)
	}
	if total != 17 { // 9 + 8
		t.Errorf("total = %v, want 17", total)
	}
	if match[0] != Unmatched || match[1] != 0 || match[2] != 1 {
		t.Errorf("match = %v, want [-1 0 1]", match)
	}
}

func TestRectangularMoreCols(t *testing.T) {
	// 2 rows, 3 cols: every row matched, one column free.
	cost := [][]float64{
		{8, 4, 7},
		{5, 2, 3},
	}
	match, total, err := minimize(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 { // 4 + 3
		t.Errorf("total = %v, want 7", total)
	}
	assertValidMatching(t, match, 3, 2)
	for i, j := range match {
		if j == Unmatched {
			t.Errorf("row %d unmatched in rows<=cols instance", i)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := minimize(nil); err == nil {
		t.Error("nil matrix: want error")
	}
	if _, _, err := minimize([][]float64{{}}); err == nil {
		t.Error("zero columns: want error")
	}
	if _, _, err := minimize([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix: want error")
	}
	if _, _, err := minimize([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN cost: want error")
	}
	if _, _, err := minimize([][]float64{{math.Inf(1)}}); err == nil {
		t.Error("Inf cost: want error")
	}
}

// TestAgainstBruteForce cross-validates the solver against exhaustive
// permutation search on random instances.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*200-100) / 4
			}
		}
		match, total, err := minimize(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceMin(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): total %v, brute force %v\ncost=%v\nmatch=%v",
				trial, n, m, total, want, cost, match)
		}
		assertValidMatching(t, match, m, n)
	}
}

func TestMaximizeMatchesNegatedMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		u := make([][]float64, n)
		neg := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, m)
			neg[i] = make([]float64, m)
			for j := range u[i] {
				u[i][j] = rng.Float64() * 50
				neg[i][j] = -u[i][j]
			}
		}
		_, maxTotal, err := maximize(u)
		if err != nil {
			t.Fatal(err)
		}
		_, minTotal, err := minimize(neg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(maxTotal+minTotal) > 1e-9 {
			t.Fatalf("Maximize %v != -Minimize %v", maxTotal, minTotal)
		}
	}
}

func TestLargeInstanceRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 120
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 1000
		}
	}
	match, total, err := minimize(cost)
	if err != nil {
		t.Fatal(err)
	}
	assertValidMatching(t, match, n, n)
	// Sanity bound: optimal total is below the random diagonal's total.
	var diag float64
	for i := range cost {
		diag += cost[i][i]
	}
	if total > diag {
		t.Errorf("optimal total %v worse than arbitrary diagonal %v", total, diag)
	}
}

// assertValidMatching checks that every matched column is used at most
// once and that exactly min(rows,cols) matches exist.
func assertValidMatching(t *testing.T, match []int, cols, rows int) {
	t.Helper()
	seen := make(map[int]bool)
	matched := 0
	for i, j := range match {
		if j == Unmatched {
			continue
		}
		if j < 0 || j >= cols {
			t.Fatalf("row %d matched to invalid column %d", i, j)
		}
		if seen[j] {
			t.Fatalf("column %d matched twice", j)
		}
		seen[j] = true
		matched++
	}
	want := rows
	if cols < rows {
		want = cols
	}
	if matched != want {
		t.Fatalf("%d matches, want %d", matched, want)
	}
}

// bruteForceMin exhaustively minimizes over all injections of the smaller
// dimension into the larger.
func bruteForceMin(cost [][]float64) float64 {
	n, m := len(cost), len(cost[0])
	best := math.Inf(1)
	if n <= m {
		perm := make([]int, m)
		for j := range perm {
			perm[j] = j
		}
		permute(perm, 0, func(p []int) {
			var total float64
			for i := 0; i < n; i++ {
				total += cost[i][p[i]]
			}
			if total < best {
				best = total
			}
		})
		return best
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	permute(perm, 0, func(p []int) {
		var total float64
		for j := 0; j < m; j++ {
			total += cost[p[j]][j]
		}
		if total < best {
			best = total
		}
	})
	return best
}

func permute(xs []int, k int, visit func([]int)) {
	if k == len(xs) {
		visit(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, visit)
		xs[k], xs[i] = xs[i], xs[k]
	}
}
