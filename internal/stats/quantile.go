package stats

import (
	"fmt"
	"math"
)

// Quantile is a streaming estimator of a single quantile using the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// minimum, the maximum, the target quantile and its two flanking
// mid-quantiles, adjusted after every observation with piecewise
// parabolic interpolation. Memory is O(1) regardless of stream length —
// the property the million-user city harness needs, where a per-event
// latency sample slice would grow without bound.
//
// For the first five observations the estimate is exact (the samples
// are simply sorted). The estimate is deterministic for a given
// observation sequence; different interleavings of the same samples may
// yield slightly different estimates, which is acceptable for the
// wall-clock measurements it is used on (those are excluded from the
// determinism contract anyway, DESIGN.md §7).
//
// The zero Quantile is not ready for use; construct with NewQuantile.
type Quantile struct {
	p     float64    // target quantile in (0,1)
	n     int        // observations seen
	q     [5]float64 // marker heights
	pos   [5]float64 // actual marker positions (1-based)
	want  [5]float64 // desired marker positions
	dWant [5]float64 // desired-position increments per observation
}

// NewQuantile returns a P² estimator of the p-th quantile, p in (0,1)
// exclusive (e.g. 0.5 for the median, 0.99 for the tail).
func NewQuantile(p float64) (*Quantile, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return nil, fmt.Errorf("stats: quantile %v outside (0,1)", p)
	}
	q := &Quantile{p: p}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.dWant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// MustQuantile is NewQuantile for static, known-valid p; it panics on an
// invalid quantile.
func MustQuantile(p float64) *Quantile {
	q, err := NewQuantile(p)
	if err != nil {
		panic(err)
	}
	return q
}

// Add feeds one observation into the estimator.
func (q *Quantile) Add(x float64) {
	if q.n < 5 {
		q.q[q.n] = x
		q.n++
		// Keep the warm-up markers sorted; five elements, insertion is
		// cheapest and allocation-free.
		for i := q.n - 1; i > 0 && q.q[i] < q.q[i-1]; i-- {
			q.q[i], q.q[i-1] = q.q[i-1], q.q[i]
		}
		if q.n == 5 {
			for i := range q.pos {
				q.pos[i] = float64(i + 1)
			}
		}
		return
	}

	// Locate the cell the observation falls into and update the extreme
	// markers.
	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.q[k+1] {
				break
			}
		}
	}
	q.n++
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.dWant[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.q[i-1] < h && h < q.q[i+1] {
				q.q[i] = h
			} else {
				q.q[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction d (±1).
func (q *Quantile) parabolic(i int, d float64) float64 {
	return q.q[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.q[i+1]-q.q[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.q[i]-q.q[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear is the fallback linear height prediction used when the
// parabolic one would violate marker monotonicity.
func (q *Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.q[i] + d*(q.q[j]-q.q[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it is the exact quantile of what has been seen (nearest
// rank); with none it is 0.
func (q *Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n < 5 {
		rank := int(math.Ceil(q.p * float64(q.n)))
		if rank < 1 {
			rank = 1
		}
		return q.q[rank-1]
	}
	return q.q[2]
}
