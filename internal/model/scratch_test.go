package model

import (
	"math/rand"
	"testing"
)

func scratchTestNetwork(rng *rand.Rand, numExt, numUsers int) *Network {
	n := &Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 60 + rng.Float64()*200
	}
	for i := range n.WiFiRates {
		n.WiFiRates[i] = make([]float64, numExt)
		for j := range n.WiFiRates[i] {
			n.WiFiRates[i][j] = 1 + rng.Float64()*53
		}
	}
	return n
}

// TestEvaluateWithMatchesEvaluate reuses one scratch across many
// assignments of varying shapes and asserts bit-identical agreement with
// the allocating Evaluate, in every option mode.
func TestEvaluateWithMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	var s EvalScratch
	for _, shape := range []struct{ ext, users int }{
		{1, 1}, {4, 12}, {10, 36}, {3, 40}, {15, 5},
	} {
		n := scratchTestNetwork(rng, shape.ext, shape.users)
		for trial := 0; trial < 10; trial++ {
			a := make(Assignment, shape.users)
			for i := range a {
				if rng.Intn(10) == 0 {
					a[i] = Unassigned
				} else {
					a[i] = rng.Intn(shape.ext)
				}
			}
			for _, opts := range []Options{
				{},
				{Redistribute: true},
			} {
				want, err := Evaluate(n, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvaluateWith(&s, n, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Aggregate != want.Aggregate {
					t.Fatalf("%+v opts %+v: aggregate %v, want %v", shape, opts, got.Aggregate, want.Aggregate)
				}
				if got.ActiveExtenders != want.ActiveExtenders {
					t.Fatalf("%+v: active %d, want %d", shape, got.ActiveExtenders, want.ActiveExtenders)
				}
				for i := range want.PerUser {
					if got.PerUser[i] != want.PerUser[i] {
						t.Fatalf("%+v: PerUser[%d] = %v, want %v", shape, i, got.PerUser[i], want.PerUser[i])
					}
				}
				for j := range want.PerExtender {
					if got.PerExtender[j] != want.PerExtender[j] ||
						got.WiFiDemand[j] != want.WiFiDemand[j] ||
						got.TimeShare[j] != want.TimeShare[j] {
						t.Fatalf("%+v: extender %d columns differ", shape, j)
					}
				}
			}
		}
	}
}

func TestEvaluateWithValidation(t *testing.T) {
	n := scratchTestNetwork(rand.New(rand.NewSource(1)), 3, 4)
	var s EvalScratch
	if _, err := EvaluateWith(&s, n, Assignment{0, 1}, Options{}); err == nil {
		t.Error("short assignment: want error")
	}
	if _, err := EvaluateWith(&s, n, Assignment{0, 1, 2, 7}, Options{}); err == nil {
		t.Error("out-of-range extender: want error")
	}
}

func BenchmarkEvaluateAlloc(b *testing.B) {
	n := scratchTestNetwork(rand.New(rand.NewSource(5)), 15, 124)
	a := make(Assignment, 124)
	for i := range a {
		a[i] = i % 15
	}
	opts := Options{Redistribute: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(n, a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateScratch(b *testing.B) {
	n := scratchTestNetwork(rand.New(rand.NewSource(5)), 15, 124)
	a := make(Assignment, 124)
	for i := range a {
		a[i] = i % 15
	}
	opts := Options{Redistribute: true}
	var s EvalScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateWith(&s, n, a, opts); err != nil {
			b.Fatal(err)
		}
	}
}
