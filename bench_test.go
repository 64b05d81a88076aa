// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment id; see DESIGN.md §3) plus the ablation
// benches of DESIGN.md §4. Headline quantities are attached as custom
// metrics, so `go test -bench=. -benchmem` reproduces both the numbers
// and their cost.
package wolt_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/experiments"
	"github.com/plcwifi/wolt/internal/hungarian"
	"github.com/plcwifi/wolt/internal/mac1901"
	"github.com/plcwifi/wolt/internal/mac80211"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/nlp"
	"github.com/plcwifi/wolt/internal/qos"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

// benchOpts keeps the full bench suite tractable while preserving every
// experiment's shape; cmd/woltsim runs the paper-scale defaults.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:        2020,
		Trials:      5,
		MACDuration: 5,
		// 300 ms keeps the shaped-flow measurements stable enough for
		// meaningful bench metrics while the suite stays fast; cmd/woltsim
		// uses the 1 s paper-scale default.
		EmuDuration: 300 * time.Millisecond,
		Users:       36,
		Extenders:   10,
	}
}

func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Locations[0].AggregateMbps, "loc1_Mbps")
			b.ReportMetric(res.Locations[2].AggregateMbps, "loc3_Mbps")
		}
	}
}

func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Links[0].CapacityMbps, "best_link_Mbps")
			b.ReportMetric(res.Links[3].CapacityMbps, "worst_link_Mbps")
		}
	}
}

func BenchmarkFig2c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Share of solo throughput with 4 active extenders (≈0.25).
			b.ReportMetric(res.Shared[3][0]/res.Solo[0], "share_A4")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.RSSIMbps, "rssi_Mbps")
			b.ReportMetric(res.GreedyMbps, "greedy_Mbps")
			b.ReportMetric(res.WOLTMbps, "wolt_Mbps")
		}
	}
}

func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(1+res.ImprovementOverGreedy, "vs_greedy_x")
			b.ReportMetric(1+res.ImprovementOverRSSI, "vs_rssi_x")
		}
	}
}

func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BetterVsGreedy*100, "better_vs_greedy_pct")
			b.ReportMetric(res.BetterVsRSSI*100, "better_vs_rssi_pct")
		}
	}
}

func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Mean measured/model fidelity ratio for WOLT runs.
			ratios := make([]float64, len(res.Policies[0].ModelMbps))
			for k := range ratios {
				ratios[k] = res.Policies[0].MeasuredMbps[k] / res.Policies[0].ModelMbps[k]
			}
			b.ReportMetric(stats.Mean(ratios), "fidelity_ratio")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.WorstDeltaMbps, "worst3_delta_Mbps")
			b.ReportMetric(res.BestDeltaMbps, "best3_delta_Mbps")
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6a(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanImprovement["Greedy"], "vs_greedy_x")
			b.ReportMetric(res.MeanImprovement["Selfish"], "vs_selfish_x")
			b.ReportMetric(res.MeanImprovement["RSSI"], "vs_rssi_x")
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6bc(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(res.WOLT) - 1
			b.ReportMetric(res.WOLT[last].Aggregate, "wolt_final_Mbps")
			b.ReportMetric(res.Greedy[last].Aggregate, "greedy_final_Mbps")
		}
	}
}

func BenchmarkFig6c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6bc(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var reassign, arrivals float64
			for _, er := range res.WOLT {
				reassign += float64(er.Reassignments)
				arrivals += float64(er.Arrivals)
			}
			b.ReportMetric(reassign/arrivals, "reassign_per_arrival")
		}
	}
}

func BenchmarkFairness(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fairness(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanJain("WOLT"), "wolt_jain")
			b.ReportMetric(res.MeanJain("Greedy"), "greedy_jain")
			b.ReportMetric(res.MeanJain("RSSI"), "rssi_jain")
		}
	}
}

func BenchmarkNPHard(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 20
	for i := 0; i < b.N; i++ {
		res, err := experiments.NPHard(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Agreed)/float64(res.Instances), "agreement")
		}
	}
}

func BenchmarkOptimalityGap(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 15
	for i := 0; i < b.N; i++ {
		res, err := experiments.Gap(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(stats.Mean(res.Ratios), "wolt_vs_optimal")
			b.ReportMetric(stats.Mean(res.GreedyRatios), "greedy_vs_optimal")
		}
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// benchNetwork builds a deterministic enterprise-scale instance.
func benchNetwork(tb testing.TB, numExt, numUsers int) *model.Network {
	tb.Helper()
	scen := experiments.NewEnterpriseScenario(numExt, numUsers, 42)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		tb.Fatal(err)
	}
	return netsim.Build(topo, scen.Radio).Net
}

// BenchmarkPhase2Solvers compares the projected-gradient Phase II engine
// against the discrete coordinate solver.
func BenchmarkPhase2Solvers(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	for name, solver := range map[string]core.Phase2Solver{
		"projected-gradient": core.Phase2ProjectedGradient,
		"coordinate":         core.Phase2Coordinate,
	} {
		b.Run(name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				res, err := core.Assign(n, core.Options{Solver: solver})
				if err != nil {
					b.Fatal(err)
				}
				if res.Phase2 != nil {
					obj = res.Phase2.Objective
				}
			}
			b.ReportMetric(obj, "phase2_objective")
		})
	}
}

// BenchmarkRedistribution quantifies the leftover-time water-filling:
// the same WOLT assignment evaluated with and without redistribution.
func BenchmarkRedistribution(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	res, err := core.Assign(n, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for name, opts := range map[string]model.Options{
		"with-redistribution":    {Redistribute: true},
		"without-redistribution": {Redistribute: false},
	} {
		b.Run(name, func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				eval, err := model.Evaluate(n, res.Assign, opts)
				if err != nil {
					b.Fatal(err)
				}
				agg = eval.Aggregate
			}
			b.ReportMetric(agg, "aggregate_Mbps")
		})
	}
}

// BenchmarkPhase1Coverage ablates Phase I's "seed every extender" rule:
// full WOLT vs placing every user with the Phase II solver alone.
func BenchmarkPhase1Coverage(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	opts := model.Options{Redistribute: true}
	b.Run("with-phase1", func(b *testing.B) {
		var agg float64
		for i := 0; i < b.N; i++ {
			res, err := core.Assign(n, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			agg = model.Aggregate(n, res.Assign, opts)
		}
		b.ReportMetric(agg, "aggregate_Mbps")
	})
	b.Run("phase2-only", func(b *testing.B) {
		free := make(model.Assignment, n.NumUsers())
		for i := range free {
			free[i] = model.Unassigned
		}
		var agg float64
		for i := 0; i < b.N; i++ {
			sol, err := nlp.SolveCoordinateWith(nlp.Problem{Rates: n.WiFiRates, Fixed: free}, nlp.SumThroughput)
			if err != nil {
				b.Fatal(err)
			}
			agg = model.Aggregate(n, sol.Assign, opts)
		}
		b.ReportMetric(agg, "aggregate_Mbps")
	})
}

// BenchmarkHungarianScaling measures the Phase I solver's O(n³) core.
func BenchmarkHungarianScaling(b *testing.B) {
	for _, size := range []int{10, 50, 100, 200} {
		rng := rand.New(rand.NewSource(int64(size)))
		cost := make([][]float64, size)
		for i := range cost {
			cost[i] = make([]float64, size)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 1000
			}
		}
		b.Run(benchName("n", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := new(hungarian.Workspace).Minimize(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWOLTScaling measures end-to-end assignment latency at
// enterprise scales (the paper's complexity discussion: the brute force
// is ~30^10; WOLT is polynomial).
func BenchmarkWOLTScaling(b *testing.B) {
	for _, cfg := range []struct{ ext, users int }{
		{3, 7},    // testbed scale
		{10, 36},  // Fig 6a scale
		{15, 124}, // the paper's largest reported scale
	} {
		n := benchNetwork(b, cfg.ext, cfg.users)
		b.Run(benchName("ext", cfg.ext)+benchName("_users", cfg.users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Assign(n, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMACSimulators measures the two MAC substrates.
func BenchmarkMACSimulators(b *testing.B) {
	b.Run("mac80211-4stations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mac80211.Simulate([]float64{54, 24, 12, 6}, 5,
				mac80211.DefaultParams(), rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mac1901-4stations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mac1901.Simulate([]float64{160, 120, 90, 60}, 5,
				mac1901.DefaultParams(), rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluate measures the inner-loop cost of the throughput model
// (the quantity every policy's search multiplies).
func BenchmarkEvaluate(b *testing.B) {
	n := benchNetwork(b, 15, 124)
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		assign[i] = i % n.NumExtenders()
	}
	opts := model.Options{Redistribute: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(n, assign, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}

// BenchmarkIncrementalBudget shows the throughput recovered per allowed
// re-association: the extension knob behind the paper's Fig 6c concern.
func BenchmarkIncrementalBudget(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	// Previous state: strongest-rate association (the commodity default).
	prev := make(model.Assignment, n.NumUsers())
	for i, row := range n.WiFiRates {
		best, bestRate := 0, row[0]
		for j, r := range row {
			if r > bestRate {
				best, bestRate = j, r
			}
		}
		prev[i] = best
	}
	opts := model.Options{Redistribute: true}
	for _, budget := range []int{0, 2, 5, 10, -1} {
		name := "unlimited"
		if budget >= 0 {
			name = benchName("budget", budget)
		}
		b.Run(name, func(b *testing.B) {
			var achieved, target float64
			for i := 0; i < b.N; i++ {
				res, err := core.AssignIncremental(n, prev, budget, core.Options{}, opts)
				if err != nil {
					b.Fatal(err)
				}
				achieved, target = res.AchievedAggregate, res.TargetAggregate
			}
			b.ReportMetric(achieved, "achieved_Mbps")
			b.ReportMetric(achieved/target, "of_target")
		})
	}
}

// BenchmarkFairnessVariant compares plain WOLT against the
// proportional-fair Phase II extension.
func BenchmarkFairnessVariant(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	opts := model.Options{Redistribute: true}
	variants := map[string]func() (*core.Result, error){
		"throughput": func() (*core.Result, error) { return core.Assign(n, core.Options{}) },
		"proportional-fair": func() (*core.Result, error) {
			return core.Assign(n, core.Options{Utility: model.ProportionalFairness(), Solver: core.Phase2Coordinate})
		},
	}
	for name, assign := range variants {
		b.Run(name, func(b *testing.B) {
			var agg, jain float64
			for i := 0; i < b.N; i++ {
				res, err := assign()
				if err != nil {
					b.Fatal(err)
				}
				eval, err := model.Evaluate(n, res.Assign, opts)
				if err != nil {
					b.Fatal(err)
				}
				agg = eval.Aggregate
				jain = stats.JainIndex(eval.PerUser)
			}
			b.ReportMetric(agg, "aggregate_Mbps")
			b.ReportMetric(jain, "jain")
		})
	}
}

// BenchmarkFrontierAlpha prices one full two-phase wolt-alpha solve per
// utility member on the enterprise instance, attaching the frontier's
// headline quantities (achieved utility, Jain index, sum-rate) as
// metrics: scripts/bench.sh frontier records these rows in
// BENCH_frontier.jsonl. It first holds the frontier's gate
// (checkPFFairer), so no runner records a frontier whose fairness
// member buys no fairness.
func BenchmarkFrontierAlpha(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	checkPFFairer(b, n)
	for _, alpha := range []float64{0, 0.5, 1, 2, 4, math.Inf(1)} {
		name := fmt.Sprintf("alpha=%g", alpha)
		b.Run(name, func(b *testing.B) {
			st := frontierStrategy(b, "wolt-alpha", alpha)
			var agg, jain, util float64
			for i := 0; i < b.N; i++ {
				agg, jain, util = frontierPoint(b, n, st, alpha)
			}
			b.ReportMetric(agg, "aggregate_Mbps")
			b.ReportMetric(jain, "jain")
			b.ReportMetric(util, "utility")
		})
	}
}

// TestFrontierPFFairer runs BenchmarkFrontierAlpha's gate on every
// `go test`: the instance is deterministic, so the gate needs no timing.
func TestFrontierPFFairer(t *testing.T) {
	checkPFFairer(t, benchNetwork(t, 10, 40))
}

// checkPFFairer is the frontier's acceptance gate: on the enterprise
// instance, wolt-pf (α=1) must show a strictly higher Jain index than
// plain wolt (α=0). Fairness members must buy fairness, not just cost
// throughput.
func checkPFFairer(tb testing.TB, n *model.Network) {
	tb.Helper()
	_, wolt, _ := frontierPoint(tb, n, frontierStrategy(tb, "wolt", 0), 0)
	_, pf, _ := frontierPoint(tb, n, frontierStrategy(tb, "wolt-pf", 1), 1)
	if !(pf > wolt) {
		tb.Fatalf("wolt-pf jain %.4f <= wolt jain %.4f", pf, wolt)
	}
}

// frontierOpts is the frontier's network model.
var frontierOpts = model.Options{Redistribute: true}

// frontierStrategy builds the named registry strategy at α.
func frontierStrategy(tb testing.TB, name string, alpha float64) strategy.Strategy {
	tb.Helper()
	st, err := strategy.New(name, strategy.Config{ModelOpts: frontierOpts, Alpha: alpha})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// frontierPoint solves n with st and scores the association under U_α:
// its sum-rate, Jain index and achieved utility.
func frontierPoint(tb testing.TB, n *model.Network, st strategy.Strategy, alpha float64) (agg, jain, util float64) {
	tb.Helper()
	assign, err := st.Solve(n)
	if err != nil {
		tb.Fatal(err)
	}
	evalOpts := frontierOpts
	evalOpts.Utility = model.AlphaFair(alpha)
	eval, err := model.Evaluate(n, assign, evalOpts)
	if err != nil {
		tb.Fatal(err)
	}
	return eval.Aggregate, stats.JainIndex(eval.PerUser), eval.Utility
}

// BenchmarkQoSPlanning measures the TDMA admission + best-effort WOLT
// pipeline and reports the split between guaranteed and best-effort
// throughput.
func BenchmarkQoSPlanning(b *testing.B) {
	n := benchNetwork(b, 10, 40)
	demands := []qos.Demand{}
	for u := 0; u < 5; u++ {
		// Guarantee 10 Mbps to five users that can sustain it somewhere.
		best := 0.0
		for _, r := range n.WiFiRates[u] {
			if r > best {
				best = r
			}
		}
		if best >= 10 {
			demands = append(demands, qos.Demand{User: u, Mbps: 10})
		}
	}
	var guaranteed, bestEffort float64
	for i := 0; i < b.N; i++ {
		plan, err := qos.Build(qos.Config{
			Net:      n,
			Priority: demands,
			Eval:     model.Options{Redistribute: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		guaranteed = 0
		for _, g := range plan.Guaranteed {
			guaranteed += g
		}
		if plan.BestEffort != nil {
			bestEffort = plan.BestEffort.Aggregate
		}
	}
	b.ReportMetric(guaranteed, "guaranteed_Mbps")
	b.ReportMetric(bestEffort, "besteffort_Mbps")
}

// BenchmarkChannelScarcity reports the aggregate surviving the real
// three-channel 2.4 GHz budget relative to the paper's unlimited-channel
// assumption.
func BenchmarkChannelScarcity(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 3
	var three, unlimited float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Channels(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			switch p.Channels {
			case 3:
				three = p.AggregateMbps
			case 0:
				unlimited = p.AggregateMbps
			}
		}
	}
	b.ReportMetric(three, "three_channel_Mbps")
	b.ReportMetric(unlimited, "unlimited_Mbps")
	b.ReportMetric(three/unlimited, "retained")
}

// BenchmarkMobilityStrategies reports mean aggregates of the four
// re-association strategies under motion.
func BenchmarkMobilityStrategies(b *testing.B) {
	opts := benchOpts()
	opts.Trials = 8 // ticks
	opts.Users = 18
	opts.Extenders = 5
	var static, roaming, full, budgeted float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Mobility(opts)
		if err != nil {
			b.Fatal(err)
		}
		static, roaming, full, budgeted = res.Means()
	}
	b.ReportMetric(static, "static_Mbps")
	b.ReportMetric(roaming, "roaming_Mbps")
	b.ReportMetric(full, "full_Mbps")
	b.ReportMetric(budgeted, "budgeted_Mbps")
}
