package model

import (
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// TestProbeDominatedMatchesBeats pins ProbeDominated to ProbeMoveBeats:
// a move it claims is one ProbeMoveBeats rejects from its bound for the
// same bar and eps (false, one Bounded), both count the probe alike,
// and nothing is claimed or counted outside the sum-rate model without
// Redistribute. Where Dominated holds, every move between
// two extenders is claimed. PLC capacities are scaled from every cell
// capped to none capped, over the bound-stressing layouts, bars at and
// around the committed score.
func TestProbeDominatedMatchesBeats(t *testing.T) {
	opts := []Options{{}, {Redistribute: true}, {Utility: ProportionalFairness()}}
	claimed, whole := 0, 0
	for ci, c := range boundCases {
		for _, o := range opts {
			for _, scale := range []float64{1e-9, 1e-4, 1} {
				rng := seed.Rand(int64(ci), seed.DeltaFuzz, 5)
				n, a := boundInstance(rng, c.sizes, c.free)
				for j := range n.PLCCaps {
					n.PLCCaps[j] *= scale
				}
				var d DeltaEval
				if err := d.Attach(n, a, o); err != nil {
					t.Fatal(err)
				}
				sc := d.Score()
				bars := []Score{
					sc,
					{Primary: stepUlps(sc.Primary, -1), Tie: stepUlps(sc.Tie, -1)},
					{Primary: stepUlps(sc.Primary, 1), Tie: stepUlps(sc.Tie, 1)},
				}
				all := d.Dominated(sc, 1e-12)
				if all {
					whole++
				}
				for _, i := range probeUsers(n, 48) {
					from := d.Assigned(i)
					for to := Unassigned; to < n.NumExtenders(); to++ {
						if to != Unassigned && n.WiFiRates[i][to] <= 0 {
							continue
						}
						for _, eps := range []float64{0, 1e-12} {
							for _, bar := range bars {
								probes, bounded := d.Probes, d.Bounded
								dom := d.ProbeDominated(from, to, bar, eps)
								if dom != (d.Probes == probes+1 && d.Bounded == bounded+1) || (!dom && d.Probes != probes) {
									t.Fatalf("move %d: %d→%d: ProbeDominated = %v counted %d probes, %d bounded",
										i, from, to, dom, d.Probes-probes, d.Bounded-bounded)
								}
								if dom && (o != Options{}) {
									t.Fatalf("move %d: %d→%d claimed under %+v", i, from, to, o)
								}
								probes, bounded = d.Probes, d.Bounded
								if _, ok := d.ProbeMoveBeats(i, from, to, bar, eps); dom && (ok || d.Bounded != bounded+1) {
									t.Fatalf("move %d: %d→%d, bar %+v: claimed dominated, ProbeMoveBeats = %v with %d bounded",
										i, from, to, bar, ok, d.Bounded-bounded)
								}
								if dom {
									claimed++
								}
							}
						}
						if all && from != Unassigned && to != Unassigned && to != from && !d.ProbeDominated(from, to, sc, 1e-12) {
							t.Fatalf("move %d: %d→%d not claimed in a dominated state", i, from, to)
						}
					}
				}
			}
		}
	}
	if claimed == 0 || whole == 0 {
		t.Fatalf("no coverage: %d moves claimed, %d dominated states", claimed, whole)
	}
}
