package model

import (
	"fmt"
	"math"
)

// Utility selects the per-user utility family U_α the evaluation scores
// an assignment under (the objective spectrum of the related work: Liew
// & Zhang's proportional fairness, Facchi et al.'s utility
// maximization). Under throughput-fair WiFi sharing every user on an
// extender receives the same throughput x, and the assignment-level
// utility is Σ_users u_α(x_i) for the classic α-fair family
//
//	u_α(x) = x            α = 0   (sum-rate: Utility == Aggregate)
//	u_α(x) = ln x         α = 1   (proportional fair)
//	u_α(x) = x^(1−α)/(1−α) else   (general α-fair)
//
// and, as α → ∞, max-min fairness — represented exactly (not by a large
// finite α) with the MaxMin flag: the primary objective becomes the
// minimum assigned-user throughput, with ties broken lexicographically
// by the aggregate (see Score).
//
// The zero value is sum-rate, so every existing call site keeps today's
// behavior bit-for-bit. Utility is a comparable value type on purpose:
// model.Options is compared with == (DeltaEval.Sync), so the family
// is parameterized by data, never by function values.
type Utility struct {
	// Alpha is the fairness exponent of the finite-α family; 0 is
	// sum-rate, 1 proportional fair. Ignored when MaxMin is set.
	Alpha float64
	// MaxMin selects the α→∞ limit: maximize the minimum assigned-user
	// throughput, ties by aggregate (lexicographic, see Score).
	MaxMin bool
}

// AlphaFair returns the utility with the given fairness exponent.
// +Inf maps to the exact MaxMin limit; negative exponents are clamped
// to 0 (sum-rate) — the family is only defined for α ≥ 0.
func AlphaFair(alpha float64) Utility {
	if math.IsInf(alpha, 1) {
		return Utility{MaxMin: true}
	}
	if alpha < 0 {
		alpha = 0
	}
	return Utility{Alpha: alpha}
}

// ProportionalFairness is AlphaFair(1).
func ProportionalFairness() Utility { return Utility{Alpha: 1} }

// IsSumRate reports whether u is the zero (sum-rate) member, whose
// utility is defined to be bit-identical to the aggregate.
func (u Utility) IsSumRate() bool { return !u.MaxMin && u.Alpha == 0 }

// String names the member in registry/table style.
func (u Utility) String() string {
	switch {
	case u.MaxMin:
		return "maxmin"
	case u.Alpha == 0:
		return "sumrate"
	case u.Alpha == 1:
		return "pf"
	}
	return fmt.Sprintf("alpha=%g", u.Alpha)
}

// PerUser is u_α(x), the utility of one user receiving throughput x.
// For MaxMin it returns x itself (the leximin objective is not
// separable; callers needing its semantics compare Scores). For α ≥ 1
// a non-positive throughput has utility −∞; for α < 1 it is 0.
func (u Utility) PerUser(x float64) float64 {
	switch {
	case u.MaxMin || u.Alpha == 0:
		return x
	case x <= 0:
		if u.Alpha < 1 {
			return 0
		}
		return math.Inf(-1)
	case u.Alpha == 1:
		return math.Log(x)
	case u.Alpha == 2:
		return -1 / x
	}
	return math.Pow(x, 1-u.Alpha) / (1 - u.Alpha)
}

// CellUtility is one cell's additive contribution to the finite-α
// assignment utility: a cell of count users delivering perExt total
// gives each user perExt/count, so the cell contributes
// count·u_α(perExt/count). The α=0 fast path returns perExt itself —
// NOT count·(perExt/count), whose floating-point round trip would break
// the sum-rate bit-identity contract. Not meaningful under MaxMin
// (the min is taken over cells, not summed).
func (u Utility) CellUtility(count int, perExt float64) float64 {
	if count <= 0 {
		return 0
	}
	if u.IsSumRate() {
		return perExt
	}
	n := float64(count)
	return n * u.PerUser(perExt/n)
}

// Deficit orders users for the hill-climb sweep: the headroom between a
// user's best candidate PHY rate and its current one, measured in the
// utility's own units so fairness-hungry members visit starved users
// first. Sum-rate keeps today's raw rate difference bit-for-bit; MaxMin
// uses the same rate ordering (its lexicographic objective has no
// per-user separable term to difference); finite α > 0 differences
// u_α, which sends users at (or near) zero throughput to the front.
func (u Utility) Deficit(best, cur float64) float64 {
	if u.IsSumRate() || u.MaxMin {
		return best - cur
	}
	if cur <= 0 {
		return math.Inf(1)
	}
	return u.PerUser(best) - u.PerUser(cur)
}

// Score is an assignment's lexicographic objective value under a
// Utility: Primary is the utility (the aggregate itself for sum-rate,
// Σ u_α for finite α, the minimum assigned-user throughput for MaxMin)
// and Tie the aggregate throughput, compared only when the primaries
// tie. For sum-rate both components are the same number, so every
// comparison below reduces exactly to the aggregate comparison the
// pre-utility code performed — the α=0 bit-identity contract.
type Score struct {
	Primary float64
	Tie     float64
}

// BetterEps reports whether s beats o by more than eps, the
// strict-improvement form the search loops use: the primary must win
// by more than eps, or sit within eps while the tie-break wins by more
// than eps. When Primary == Tie (sum-rate) this is exactly
// `s.Tie > o.Tie + eps`, the pre-utility comparison.
func (s Score) BetterEps(o Score, eps float64) bool {
	if s.Primary > o.Primary+eps {
		return true
	}
	if s.Primary < o.Primary-eps {
		return false
	}
	return s.Tie > o.Tie+eps
}

// utilityOver computes the assignment-level utility from per-extender
// delivered throughputs over the ascending active set — the shared
// final stage of EvaluateWith and DeltaEval.recommit. The caller
// handles the sum-rate fast path (utility = aggregate) itself.
func utilityOver(u Utility, active []int, perExt []float64, count []int) float64 {
	if u.MaxMin {
		if len(active) == 0 {
			return 0
		}
		min := math.Inf(1)
		for _, j := range active {
			if share := perExt[j] / float64(count[j]); share < min {
				min = share
			}
		}
		return min
	}
	var total float64
	for _, j := range active {
		total += u.CellUtility(count[j], perExt[j])
	}
	return total
}
