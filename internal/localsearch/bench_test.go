// Benchmarks for the warm re-solve path, in package localsearch_test so
// they can price the anytime search against the full two-phase solve in
// internal/core without an import cycle. scripts/bench.sh anytime runs
// these and records the numbers in BENCH_anytime.jsonl.
package localsearch_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// warmBenchNetwork mirrors internal/core's benchNetwork (unexported
// there): the 2000×32 enterprise instance of BenchmarkLargeSolve, with
// one deliberate change — PLC capacities are scaled 10×. The stock
// instance is PLC-saturated under the redistribute model (Σ demand/cap
// ≈ 3.5 > 1), where water-filling hands every active cell time 1/|A|
// and the aggregate collapses to Σcaps/|A| for ANY assignment — a
// degenerate quality reference. The scaled caps put the instance in the
// WiFi-bound regime (Σ need ≈ 0.35) where the objective actually
// responds to association choices, so the gap metric means something.
// Wall-clock comparability with BenchmarkLargeSolve is unaffected: the
// solve and probe costs depend on instance shape, not cap magnitude.
func warmBenchNetwork(users, extenders int) *model.Network {
	rng := seed.Root(2020)
	steps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	n := &model.Network{
		WiFiRates: make([][]float64, users),
		PLCCaps:   make([]float64, extenders),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 10 * (300 + 500*rng.Float64())
	}
	for i := range n.WiFiRates {
		n.WiFiRates[i] = make([]float64, extenders)
		reachable := false
		for j := range n.WiFiRates[i] {
			if rng.Float64() < 0.5 {
				n.WiFiRates[i][j] = steps[rng.Intn(len(steps))]
				reachable = true
			}
		}
		if !reachable {
			n.WiFiRates[i][rng.Intn(extenders)] = steps[rng.Intn(len(steps))]
		}
	}
	return n
}

// warmFixture is the shared benchmark state: the instance, the full
// WOLT solve (the quality reference), and a churned copy of that
// solution — the "previous association" a warm re-solve starts from.
type warmFixture struct {
	net     *model.Network
	full    model.Assignment
	fullAgg float64
	churned model.Assignment
}

var (
	warmOnce sync.Once
	warm     warmFixture
	warmErr  error
)

// warmSetup solves the 2000×32 instance once with the full two-phase
// pipeline, then applies a deterministic churn burst: 16 users hop to a
// random reachable extender and 4 depart-and-rejoin (arrive
// unassigned). Every benchmark iteration repairs this same start, so
// ns/op is the latency of one warm re-solve under that churn.
func warmSetup() {
	warm.net = warmBenchNetwork(2000, 32)
	var ws core.Scratch
	res, err := core.AssignWith(&ws, warm.net, core.Options{})
	if err != nil {
		warmErr = err
		return
	}
	warm.full = res.Assign
	warm.fullAgg = model.Aggregate(warm.net, warm.full, model.Options{Redistribute: true})

	warm.churned = append(model.Assignment(nil), warm.full...)
	rng := seed.Rand(2020, seed.AnytimeBench, 0)
	users := warm.net.NumUsers()
	for k := 0; k < 16; k++ {
		i := rng.Intn(users)
		for {
			j := rng.Intn(warm.net.NumExtenders())
			if warm.net.WiFiRates[i][j] > 0 {
				warm.churned[i] = j
				break
			}
		}
	}
	for k := 0; k < 4; k++ {
		warm.churned[rng.Intn(users)] = model.Unassigned
	}
}

// benchWarmResolve measures one warm re-solve at the given method and
// probe budget, reporting the objective gap vs the full solve as
// "gap_pct". Below 1000 probes the gap must be at most 3% (the anytime
// acceptance target), or the benchmark fails.
func benchWarmResolve(b *testing.B, method localsearch.Method, probes int) {
	warmOnce.Do(warmSetup)
	if warmErr != nil {
		b.Fatal(warmErr)
	}
	opts := localsearch.Options{
		Model:  model.Options{Redistribute: true},
		Seed:   2020,
		Budget: localsearch.Budget{Probes: probes},
	}
	var s localsearch.Searcher
	var last *localsearch.Result
	start := make(model.Assignment, len(warm.churned))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The search repairs its start in place: every iteration
		// starts from a fresh copy of the churned state.
		copy(start, warm.churned)
		res, err := s.Search(warm.net, start, method, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	gap := 100 * (warm.fullAgg - last.Aggregate) / warm.fullAgg
	if probes < 1000 && gap > 3 {
		b.Fatalf("gap %.4f%% at %d probes, want <= 3%%", gap, probes)
	}
	b.ReportMetric(gap, "gap_pct")
	b.ReportMetric(100*(warm.fullAgg-last.Start)/warm.fullAgg, "startgap_pct")
	b.ReportMetric(float64(last.Probes), "probes/op")
}

// BenchmarkWarmResolve is the headline number: hill-climbing repair of
// a churn burst on the BenchmarkLargeSolve instance. Compare ns/op
// against BenchmarkLargeSolve in internal/core — the full solve this
// path replaces.
func BenchmarkWarmResolve(b *testing.B) {
	for _, probes := range []int{100, 500, 1000, 2000, 10000} {
		b.Run(fmt.Sprintf("hillclimb/probes=%d", probes), func(b *testing.B) {
			benchWarmResolve(b, localsearch.HillClimbing, probes)
		})
	}
}

func BenchmarkWarmResolveKOpt(b *testing.B) {
	benchWarmResolve(b, localsearch.KOpt, 2000)
}

func BenchmarkWarmResolveAnneal(b *testing.B) {
	benchWarmResolve(b, localsearch.Annealing, 2000)
}

// BenchmarkWarmRepair prices the steady warm path the control plane
// runs per event: one logged rate update (Network.SetRow) followed by a
// 200-probe hill-climb repair on the same, reused Searcher, so every
// call catches up by replaying one row edit rather than re-attaching.
// The state starts at a hill-climb local optimum. Across the user
// counts, ns/op should grow only with the probed cells, not with the
// number of users. Three models: "redistribute" (PLC leftover
// redistribution), where every probe is exact; "city", the city
// harness's sum-rate model without redistribution, where probes that
// cannot win are rejected from a bound (bounded/op); and "capped", the
// city model with PLC capacities cut 1000×, so every cell delivers its
// PLC share and no single move can win: each repair is one dominated
// pass, priced without probing (model.DeltaEval.Dominated).
func BenchmarkWarmRepair(b *testing.B) {
	models := []struct {
		name     string
		opts     model.Options
		capScale float64
	}{
		{"redistribute", model.Options{Redistribute: true}, 1},
		{"city", model.Options{}, 1},
		{"capped", model.Options{}, 1e-3},
	}
	for _, m := range models {
		for _, users := range []int{250, 1000, 4000} {
			b.Run(fmt.Sprintf("%s/users=%d", m.name, users), func(b *testing.B) {
				benchWarmRepair(b, m.opts, m.capScale, users)
			})
		}
	}
}

// benchWarmRepair is one BenchmarkWarmRepair case: users users on
// the 4-extender warm instance with its PLC capacities scaled by
// capScale, evaluated under mopts.
func benchWarmRepair(b *testing.B, mopts model.Options, capScale float64, users int) {
	n := warmBenchNetwork(users, 4)
	for j := range n.PLCCaps {
		n.PLCCaps[j] *= capScale
	}
	opts := localsearch.Options{
		Model:  mopts,
		Budget: localsearch.Budget{Probes: 200},
	}
	start := make(model.Assignment, users)
	for i := range start {
		start[i] = model.Unassigned
	}
	var s localsearch.Searcher
	res, err := s.Search(n, start, localsearch.HillClimbing, localsearch.Options{Model: opts.Model})
	if err != nil {
		b.Fatal(err)
	}
	assign := res.Assign
	// spare[i] is a row buffer the network no longer references:
	// each update fills it and swaps it with user i's installed row.
	spare := make([][]float64, users)
	for i := range spare {
		spare[i] = make([]float64, n.NumExtenders())
	}
	steps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	rng := seed.Rand(2020, seed.AnytimeBench, 1)
	probes, bounded := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := rng.Intn(users)
		row := spare[i]
		for j := range row {
			row[j] = 0
			if rng.Intn(2) == 0 {
				row[j] = steps[rng.Intn(len(steps))]
			}
		}
		if j := assign[i]; j != model.Unassigned && row[j] <= 0 {
			row[j] = steps[rng.Intn(len(steps))]
		}
		spare[i] = n.WiFiRates[i]
		n.SetRow(i, row)
		res, err := s.Search(n, assign, localsearch.HillClimbing, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Attaches != 0 {
			b.Fatalf("update %d re-attached", k)
		}
		assign = res.Assign
		probes += res.Probes
		bounded += res.Bounded
	}
	if capScale < 1 && bounded != probes {
		b.Fatalf("capped instance: %d of %d probes bounded, want every one", bounded, probes)
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(bounded)/float64(b.N), "bounded/op")
}
