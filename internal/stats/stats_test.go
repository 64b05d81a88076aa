package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanSumMinMax(t *testing.T) {
	tests := []struct {
		name     string
		give     []float64
		wantMean float64
		wantSum  float64
		wantMin  float64
		wantMax  float64
	}{
		{name: "empty", give: nil},
		{name: "single", give: []float64{4}, wantMean: 4, wantSum: 4, wantMin: 4, wantMax: 4},
		{name: "several", give: []float64{1, 2, 3, 4}, wantMean: 2.5, wantSum: 10, wantMin: 1, wantMax: 4},
		{name: "negative", give: []float64{-2, 2}, wantMean: 0, wantSum: 0, wantMin: -2, wantMax: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.wantMean {
				t.Errorf("Mean = %v, want %v", got, tt.wantMean)
			}
			if got := Sum(tt.give); got != tt.wantSum {
				t.Errorf("Sum = %v, want %v", got, tt.wantSum)
			}
			if got := Min(tt.give); got != tt.wantMin {
				t.Errorf("Min = %v, want %v", got, tt.wantMin)
			}
			if got := Max(tt.give); got != tt.wantMax {
				t.Errorf("Max = %v, want %v", got, tt.wantMax)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known dataset: population variance 4, sample variance 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile on empty input: want error, got nil")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101): want error, got nil")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1): want error, got nil")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	got, err := Percentile([]float64{1, 3, 2}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "all zero", give: []float64{0, 0}, want: 0},
		{name: "equal", give: []float64{5, 5, 5, 5}, want: 1},
		{name: "one hog", give: []float64{1, 0, 0, 0}, want: 0.25},
		{name: "paper-ish", give: []float64{10, 20}, want: 900.0 / (2 * 500)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JainIndex(tt.give); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("JainIndex = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestJainIndexBounds(t *testing.T) {
	// Property: for non-negative inputs with at least one positive value,
	// 1/n <= J <= 1.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			x := math.Abs(v)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			// Keep values in a throughput-like range so squares cannot
			// overflow.
			xs[i] = math.Mod(x, 1e6)
			if xs[i] > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return JainIndex(xs) == 0
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	points := CDF([]float64{3, 1, 2, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(points) != len(want) {
		t.Fatalf("CDF has %d points, want %d: %v", len(points), len(want), points)
	}
	for i := range want {
		if points[i].Value != want[i].Value || !almostEqual(points[i].P, want[i].P, 1e-12) {
			t.Errorf("point %d = %+v, want %+v", i, points[i], want[i])
		}
	}
	if got := CDF(nil); got != nil {
		t.Errorf("CDF(nil) = %v, want nil", got)
	}
}

func TestCDFIsMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		points := CDF(xs)
		for i := 1; i < len(points); i++ {
			if points[i].Value <= points[i-1].Value || points[i].P <= points[i-1].P {
				return false
			}
		}
		if len(points) > 0 && !almostEqual(points[len(points)-1].P, 1, 1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 4); got != 2.5 {
		t.Errorf("Ratio(10,4) = %v, want 2.5", got)
	}
	if got := Ratio(10, 0); got != 0 {
		t.Errorf("Ratio(10,0) = %v, want 0", got)
	}
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Variance returns the unbiased sample variance of xs.
// It returns 0 when fewer than two samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}
