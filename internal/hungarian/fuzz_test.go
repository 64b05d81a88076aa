package hungarian

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMinimizeMatchesBruteForce cross-checks the Hungarian solver
// against exhaustive search on small fuzzed instances.
func FuzzMinimizeMatchesBruteForce(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3))
	f.Add(int64(7), uint8(2), uint8(5))
	f.Add(int64(9), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw, colsRaw uint8) {
		rows := 1 + int(rowsRaw%5)
		cols := 1 + int(colsRaw%5)
		rng := rand.New(rand.NewSource(seed))
		cost := make([][]float64, rows)
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				// Quantized costs keep brute-force comparisons exact.
				cost[i][j] = math.Round(rng.Float64()*400-200) / 4
			}
		}
		match, total, err := minimize(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceMin(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("hungarian %v, brute force %v (cost %v, match %v)", total, want, cost, match)
		}
	})
}
