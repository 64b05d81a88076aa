package model

import (
	"math"
	"testing"
)

func TestUtilityConstructors(t *testing.T) {
	if u := AlphaFair(math.Inf(1)); !u.MaxMin {
		t.Errorf("AlphaFair(+Inf) = %v, want max-min", u)
	}
	if u := AlphaFair(-3); u != (Utility{}) {
		t.Errorf("AlphaFair(-3) = %v, want sum-rate (clamped)", u)
	}
	if u := (Utility{}); !u.IsSumRate() {
		t.Error("zero Utility must be sum-rate")
	}
	if SumRate().IsSumRate() != true || ProportionalFairness().IsSumRate() || MaxMinFairness().IsSumRate() {
		t.Error("IsSumRate misclassifies the named members")
	}
	// Comparable value semantics: equal parameters compare equal, so
	// DeltaEval.Sync's opts != opts check keys on the family.
	if AlphaFair(1) != ProportionalFairness() || MaxMinFairness() != AlphaFair(math.Inf(1)) {
		t.Error("equal utility members must compare ==")
	}
}

func TestUtilityString(t *testing.T) {
	cases := []struct {
		u    Utility
		want string
	}{
		{Utility{}, "sumrate"},
		{AlphaFair(1), "pf"},
		{MaxMinFairness(), "maxmin"},
		{AlphaFair(2), "alpha=2"},
		{AlphaFair(0.5), "alpha=0.5"},
	}
	for _, c := range cases {
		if got := c.u.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.u, got, c.want)
		}
	}
}

func TestUtilityPerUser(t *testing.T) {
	if got := (Utility{}).PerUser(7.5); got != 7.5 {
		t.Errorf("sum-rate PerUser(7.5) = %v", got)
	}
	if got := MaxMinFairness().PerUser(7.5); got != 7.5 {
		t.Errorf("max-min PerUser(7.5) = %v", got)
	}
	if got := AlphaFair(1).PerUser(math.E); math.Abs(got-1) > 1e-15 {
		t.Errorf("pf PerUser(e) = %v, want 1", got)
	}
	if got := AlphaFair(2).PerUser(4); got != -0.25 {
		t.Errorf("alpha=2 PerUser(4) = %v, want -0.25", got)
	}
	// General α agrees with the α=2 fast path.
	want := math.Pow(4, -1) / (1 - 2)
	if got := AlphaFair(2).PerUser(4); got != want {
		t.Errorf("alpha=2 fast path %v != closed form %v", got, want)
	}
	if got := AlphaFair(0.5).PerUser(9); math.Abs(got-6) > 1e-12 {
		t.Errorf("alpha=0.5 PerUser(9) = %v, want 6", got)
	}
	// Zero-throughput edge: −∞ for α ≥ 1, 0 below it.
	if got := AlphaFair(1).PerUser(0); !math.IsInf(got, -1) {
		t.Errorf("pf PerUser(0) = %v, want -Inf", got)
	}
	if got := AlphaFair(3).PerUser(0); !math.IsInf(got, -1) {
		t.Errorf("alpha=3 PerUser(0) = %v, want -Inf", got)
	}
	if got := AlphaFair(0.5).PerUser(0); got != 0 {
		t.Errorf("alpha=0.5 PerUser(0) = %v, want 0", got)
	}
}

func TestUtilityCellUtility(t *testing.T) {
	// The α=0 fast path must return perExt itself — not n·(perExt/n),
	// whose floating-point round trip would break sum-rate bit-identity.
	per := 56.25000000000001
	if got := (Utility{}).CellUtility(3, per); got != per {
		t.Errorf("sum-rate CellUtility = %v, want the exact perExt %v", got, per)
	}
	if got := (Utility{}).CellUtility(0, 5); got != 0 {
		t.Errorf("empty cell CellUtility = %v, want 0", got)
	}
	want := 4 * math.Log(20.0/4)
	if got := AlphaFair(1).CellUtility(4, 20); got != want {
		t.Errorf("pf CellUtility(4, 20) = %v, want %v", got, want)
	}
}

func TestUtilityDeficit(t *testing.T) {
	if got := (Utility{}).Deficit(50, 30); got != 20 {
		t.Errorf("sum-rate Deficit = %v, want 20", got)
	}
	if got := MaxMinFairness().Deficit(50, 30); got != 20 {
		t.Errorf("max-min Deficit = %v, want 20", got)
	}
	if got := AlphaFair(1).Deficit(50, 0); !math.IsInf(got, 1) {
		t.Errorf("pf Deficit(best, 0) = %v, want +Inf", got)
	}
	want := math.Log(50.0) - math.Log(30.0)
	if got := AlphaFair(1).Deficit(50, 30); got != want {
		t.Errorf("pf Deficit = %v, want %v", got, want)
	}
}

func TestScoreLexicographic(t *testing.T) {
	a := Score{Primary: 2, Tie: 1}
	b := Score{Primary: 1, Tie: 100}
	if !a.Better(b) || b.Better(a) {
		t.Error("Primary must dominate Tie")
	}
	c := Score{Primary: 2, Tie: 3}
	if !c.Better(a) || a.Better(c) {
		t.Error("equal Primary must fall through to Tie")
	}
	if a.Better(a) {
		t.Error("Better must be strict")
	}

	// BetterEps: primary wins by > eps, loses by > eps, or ties within
	// eps and the tie-break decides.
	eps := 1e-12
	if !(Score{Primary: 1 + 2*eps, Tie: 0}).BetterEps(Score{Primary: 1, Tie: 100}, eps) {
		t.Error("primary win by > eps must dominate")
	}
	if (Score{Primary: 1 - 2*eps, Tie: 100}).BetterEps(Score{Primary: 1, Tie: 0}, eps) {
		t.Error("primary loss by > eps must lose")
	}
	if !(Score{Primary: 1, Tie: 1}).BetterEps(Score{Primary: 1, Tie: 0.5}, eps) {
		t.Error("primary tie must fall through to tie-break")
	}
	// Sum-rate reduction: when Primary == Tie, BetterEps is exactly the
	// old aggregate comparison agg > best+eps.
	for _, pair := range [][2]float64{{5, 5}, {5, 5 + 2e-12}, {5 + 2e-12, 5}, {5, 5 + 1e-13}} {
		s := Score{Primary: pair[0], Tie: pair[0]}
		o := Score{Primary: pair[1], Tie: pair[1]}
		if got, want := s.BetterEps(o, eps), pair[0] > pair[1]+eps; got != want {
			t.Errorf("sum-rate BetterEps(%v, %v) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

// maxMinInstance is the hand-checked 3-user network where max-min and
// sum-rate disagree: u0 and u1 reach only extender 0 (rate 100); u2
// reaches extender 0 at rate 30 and extender 1 at rate 5. PLC capacity
// never binds.
//
// With u2 on extender 0 ("A-join"): the cell's demand is
// 3/(1/100+1/100+1/30) = 56.25, so everyone gets 18.75 — aggregate
// 56.25, min share 18.75. With u2 alone on extender 1 ("B-join"):
// cell 0 delivers 100 (50 each), cell 1 delivers 5 — aggregate 105,
// min share 5. Sum-rate prefers B-join (105 > 56.25); max-min prefers
// A-join (18.75 > 5).
func maxMinInstance() (*Network, Assignment, Assignment) {
	n := &Network{
		WiFiRates: [][]float64{
			{100, 0},
			{100, 0},
			{30, 5},
		},
		PLCCaps: []float64{1000, 1000},
	}
	aJoin := Assignment{0, 0, 0}
	bJoin := Assignment{0, 0, 1}
	return n, aJoin, bJoin
}

func TestMaxMinDisagreesWithSumRate(t *testing.T) {
	n, aJoin, bJoin := maxMinInstance()
	opts := Options{Redistribute: true}

	sumA, err := Evaluate(n, aJoin, opts)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := Evaluate(n, bJoin, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumA.Aggregate-56.25) > 1e-9 || math.Abs(sumB.Aggregate-105) > 1e-9 {
		t.Fatalf("aggregates = %v, %v; want 56.25, 105", sumA.Aggregate, sumB.Aggregate)
	}
	if sumA.Utility != sumA.Aggregate || sumB.Utility != sumB.Aggregate {
		t.Fatal("sum-rate utility must equal the aggregate")
	}

	mmOpts := opts
	mmOpts.Utility = MaxMinFairness()
	mmARes, err := Evaluate(n, aJoin, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	mmBRes, err := Evaluate(n, bJoin, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mmARes.Utility-18.75) > 1e-9 || math.Abs(mmBRes.Utility-5) > 1e-9 {
		t.Fatalf("max-min utilities = %v, %v; want 18.75, 5", mmARes.Utility, mmBRes.Utility)
	}

	// The two objectives pick opposite optima on the same instance.
	if !sumB.Score().Better(sumA.Score()) {
		t.Error("sum-rate must prefer B-join")
	}
	if !mmARes.Score().Better(mmBRes.Score()) {
		t.Error("max-min must prefer A-join")
	}
}

func TestUtilityOverEmptyActive(t *testing.T) {
	if got := utilityOver(MaxMinFairness(), nil, nil, nil); got != 0 {
		t.Errorf("max-min utility of empty active set = %v, want 0", got)
	}
	if got := utilityOver(AlphaFair(1), nil, nil, nil); got != 0 {
		t.Errorf("pf utility of empty active set = %v, want 0", got)
	}
}

// SumRate is the zero utility: maximize aggregate throughput
// (objective (3)).
func SumRate() Utility { return Utility{} }

// MaxMinFairness is the α→∞ member.
func MaxMinFairness() Utility { return Utility{MaxMin: true} }

// Better reports s > o in strict lexicographic order: BetterEps with
// eps 0, which is how argmax loops ask DeltaEval.ProbeMoveBeats for it.
func (s Score) Better(o Score) bool { return s.BetterEps(o, 0) }

// Score returns the result's lexicographic objective value
// (Utility primary, Aggregate tie-break).
func (r *Result) Score() Score {
	return Score{Primary: r.Utility, Tie: r.Aggregate}
}

// Utility returns the committed assignment's value under the attached
// Options.Utility — bit-identical to EvaluateWith's Result.Utility.
func (d *DeltaEval) Utility() float64 {
	d.check()
	return d.utility
}
