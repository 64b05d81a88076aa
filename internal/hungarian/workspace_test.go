package hungarian

import (
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, n, m int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = rng.Float64() * 100
		}
	}
	return a
}

// minimize solves on a fresh workspace.
func minimize(cost [][]float64) ([]int, float64, error) {
	var w Workspace
	return w.Minimize(cost)
}

// maximize solves on a fresh workspace.
func maximize(utility [][]float64) ([]int, float64, error) {
	var w Workspace
	return w.Maximize(utility)
}

// TestWorkspaceMatchesPackageFunctions reuses one workspace across many
// instances of varying shapes and asserts bit-identical agreement with
// fresh workspaces.
func TestWorkspaceMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var w Workspace
	shapes := []struct{ n, m int }{
		{1, 1}, {3, 5}, {5, 3}, {8, 8}, {20, 7}, {7, 20}, {30, 30}, {2, 2},
	}
	for trial := 0; trial < 5; trial++ {
		for _, s := range shapes {
			cost := randomMatrix(rng, s.n, s.m)

			wantMatch, wantTotal, err := minimize(cost)
			if err != nil {
				t.Fatal(err)
			}
			gotMatch, gotTotal, err := w.Minimize(cost)
			if err != nil {
				t.Fatal(err)
			}
			if gotTotal != wantTotal {
				t.Fatalf("%dx%d minimize: workspace total %v, want %v", s.n, s.m, gotTotal, wantTotal)
			}
			for i := range wantMatch {
				if gotMatch[i] != wantMatch[i] {
					t.Fatalf("%dx%d minimize: match[%d] = %d, want %d", s.n, s.m, i, gotMatch[i], wantMatch[i])
				}
			}

			wantMatch, wantTotal, err = maximize(cost)
			if err != nil {
				t.Fatal(err)
			}
			gotMatch, gotTotal, err = w.Maximize(cost)
			if err != nil {
				t.Fatal(err)
			}
			if gotTotal != wantTotal {
				t.Fatalf("%dx%d maximize: workspace total %v, want %v", s.n, s.m, gotTotal, wantTotal)
			}
			for i := range wantMatch {
				if gotMatch[i] != wantMatch[i] {
					t.Fatalf("%dx%d maximize: match[%d] = %d, want %d", s.n, s.m, i, gotMatch[i], wantMatch[i])
				}
			}
		}
	}
}

func TestWorkspaceRejectsBadInput(t *testing.T) {
	var w Workspace
	if _, _, err := w.Minimize(nil); err == nil {
		t.Error("nil matrix: want error")
	}
	if _, _, err := w.Maximize([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix: want error")
	}
}

// BenchmarkMinimizeAlloc vs BenchmarkMinimizeWorkspace demonstrates the
// allocation reduction of workspace reuse (run with -benchmem).
func BenchmarkMinimizeAlloc(b *testing.B) {
	cost := randomMatrix(rand.New(rand.NewSource(9)), 60, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := minimize(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeWorkspace(b *testing.B) {
	cost := randomMatrix(rand.New(rand.NewSource(9)), 60, 60)
	var w Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Minimize(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaximizeWorkspace(b *testing.B) {
	utility := randomMatrix(rand.New(rand.NewSource(10)), 124, 15)
	var w Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Maximize(utility); err != nil {
			b.Fatal(err)
		}
	}
}
