package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestQuantileValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NewQuantile(p); err == nil {
			t.Errorf("NewQuantile(%v): want error", p)
		}
	}
	if _, err := NewQuantile(0.5); err != nil {
		t.Fatalf("NewQuantile(0.5): %v", err)
	}
}

func TestQuantileEmptyAndWarmup(t *testing.T) {
	q := MustQuantile(0.5)
	if got := q.Value(); got != 0 {
		t.Errorf("empty Value() = %v, want 0", got)
	}
	// Below five samples the estimate is the exact nearest-rank value.
	samples := []float64{7, 3, 9, 1}
	for i, x := range samples {
		q.Add(x)
		seen := samples[:i+1]
		if got, want := q.Value(), ExactQuantile(seen, 0.5); got != want {
			t.Errorf("after %d samples: Value() = %v, want exact %v", i+1, got, want)
		}
	}
	if q.Count() != len(samples) {
		t.Errorf("Count() = %d, want %d", q.Count(), len(samples))
	}
}

// TestQuantileAccuracy feeds streams from several distributions and
// requires the P² estimate to land near the exact quantile. Tolerances
// are in quantile rank: the estimate's rank in the sorted sample must be
// within a few percent of the target.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20000
	distributions := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
		// Latency-shaped: lognormal body with a heavy tail.
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }},
	}
	for _, dist := range distributions {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			r := rand.New(rand.NewSource(42))
			q := MustQuantile(p)
			xs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := dist.draw(r)
				xs = append(xs, x)
				q.Add(x)
			}
			est := q.Value()
			// Rank of the estimate within the sample.
			rank := 0
			for _, x := range xs {
				if x <= est {
					rank++
				}
			}
			gotP := float64(rank) / float64(n)
			if math.Abs(gotP-p) > 0.02 {
				t.Errorf("%s p=%v: estimate %v sits at rank %.4f (off by %.4f)",
					dist.name, p, est, gotP, math.Abs(gotP-p))
			}
		}
	}
}

// TestQuantileDeterministic pins that the estimator is a pure function
// of the observation sequence.
func TestQuantileDeterministic(t *testing.T) {
	feed := func() float64 {
		r := rand.New(rand.NewSource(7))
		q := MustQuantile(0.99)
		for i := 0; i < 5000; i++ {
			q.Add(r.ExpFloat64())
		}
		return q.Value()
	}
	if a, b := feed(), feed(); a != b {
		t.Errorf("same stream gave different estimates: %v vs %v", a, b)
	}
}

// TestQuantileMonotoneInput is the adversarial stream for marker
// algorithms: strictly increasing input.
func TestQuantileMonotoneInput(t *testing.T) {
	q := MustQuantile(0.5)
	xs := make([]float64, 0, 10001)
	for i := 0; i <= 10000; i++ {
		x := float64(i)
		q.Add(x)
		xs = append(xs, x)
	}
	want := ExactQuantile(xs, 0.5)
	if math.Abs(q.Value()-want) > 0.01*want {
		t.Errorf("monotone stream: estimate %v, exact %v", q.Value(), want)
	}
}

func TestExactQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.99, 5}, {0.01, 1}}
	for _, c := range cases {
		if got := ExactQuantile(xs, c.p); got != c.want {
			t.Errorf("ExactQuantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Errorf("ExactQuantile(nil) = %v, want 0", got)
	}
}

// Count returns the number of observations added.
func (q *Quantile) Count() int { return q.n }

// ExactQuantile is the nearest-rank reference the estimator's tests
// compare against: the ceil(p*n)-th smallest sample. It copies and
// sorts; use it for verification, not hot paths.
func ExactQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
