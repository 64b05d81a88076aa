// Package stats provides the small statistical toolbox used across the WOLT
// evaluation: summary statistics, empirical CDFs, confidence intervals and
// Jain's fairness index.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns an error for empty input
// or an out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// JainIndex returns Jain's fairness index of the allocations xs:
//
//	J = (Σ x_i)² / (n · Σ x_i²)
//
// J is 1 when all allocations are equal and approaches 1/n under maximal
// unfairness. An empty or all-zero sample yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// CDFPoint is a single point of an empirical CDF.
type CDFPoint struct {
	Value float64 // sample value
	P     float64 // cumulative probability in (0,1]
}

// CDF returns the empirical cumulative distribution of xs as a sorted list
// of (value, probability) points. Duplicate values are merged into one point
// carrying the highest cumulative probability.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	points := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		p := float64(i+1) / n
		if len(points) > 0 && points[len(points)-1].Value == v {
			points[len(points)-1].P = p
			continue
		}
		points = append(points, CDFPoint{Value: v, P: p})
	}
	return points
}

// Ratio returns a/b, or 0 when b is 0. It exists because experiment code
// frequently reports improvement factors over baselines that can be zero in
// degenerate topologies.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
