package experiments

import (
	"strconv"

	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
)

// simulationPolicies are the policies compared in the large-scale
// simulations. Greedy is the paper's §V-B description (each arrival
// maximizes the aggregate); Selfish is the §III-B narration (each arrival
// maximizes its own throughput) — see DESIGN.md on the ambiguity.
func simulationPolicies() []netsim.Policy {
	return []netsim.Policy{
		netsim.WOLTPolicy(),
		netsim.GreedyPolicy(Redistribute),
		netsim.SelfishPolicy(Redistribute),
		netsim.RSSIPolicy(),
	}
}

// Fig6aResult covers Fig 6a: the CDF of aggregate throughput across
// independent trials at |U| users, and WOLT's improvement factors.
type Fig6aResult struct {
	// Results holds per-policy static outcomes (trial aggregates).
	Results []netsim.StaticResult
	// CDFs[p] is the empirical CDF of policy p's trial aggregates.
	CDFs map[string][]stats.CDFPoint
	// MeanImprovement maps baseline name to WOLT's ratio of mean
	// aggregates over that baseline.
	MeanImprovement map[string]float64
	// MeanOfRatios maps baseline name to the mean of per-trial
	// WOLT/baseline ratios (how the paper's "average improvement of
	// 2.5x" is most plausibly computed).
	MeanOfRatios map[string]float64
}

// Fig6a runs the static enterprise simulation (paper: 100 trials, 36
// users).
func Fig6a(opts Options) (*Fig6aResult, error) {
	opts = opts.withDefaults(100)
	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	cfg := netsim.StaticConfig{
		Ctx:       opts.Ctx,
		Topology:  scen.Topology,
		Radio:     &scen.Radio,
		Trials:    opts.Trials,
		ModelOpts: Redistribute,
		Workers:   opts.Workers,
	}
	results, err := netsim.RunStatic(cfg, simulationPolicies())
	if err != nil {
		return nil, err
	}
	res := &Fig6aResult{
		Results:         results,
		CDFs:            make(map[string][]stats.CDFPoint, len(results)),
		MeanImprovement: make(map[string]float64),
		MeanOfRatios:    make(map[string]float64),
	}
	for _, r := range results {
		res.CDFs[r.Policy] = stats.CDF(r.Aggregates())
	}
	wolt := results[0]
	for _, r := range results[1:] {
		res.MeanImprovement[r.Policy] = stats.Ratio(wolt.MeanAggregate(), r.MeanAggregate())
		ratios := make([]float64, len(r.Trials))
		for k := range r.Trials {
			ratios[k] = stats.Ratio(wolt.Trials[k].Aggregate, r.Trials[k].Aggregate)
		}
		res.MeanOfRatios[r.Policy] = stats.Mean(ratios)
	}
	return res, nil
}

// Tables implements Tabler.
func (r *Fig6aResult) Tables() []Table {
	summary := Table{
		Caption: "Fig 6a — enterprise simulation aggregates (paper: WOLT ≈2.5x Greedy on average)",
		Header:  []string{"policy", "mean Mbps", "p10", "p50", "p90", "WOLT ratio (means)", "WOLT ratio (per-trial)"},
	}
	for _, pr := range r.Results {
		aggs := pr.Aggregates()
		p10, _ := stats.Percentile(aggs, 10)
		p50, _ := stats.Percentile(aggs, 50)
		p90, _ := stats.Percentile(aggs, 90)
		meanRatio, trialRatio := "-", "-"
		if pr.Policy != "WOLT" {
			meanRatio = f2(r.MeanImprovement[pr.Policy])
			trialRatio = f2(r.MeanOfRatios[pr.Policy])
		}
		summary.Rows = append(summary.Rows, []string{
			pr.Policy, f1(stats.Mean(aggs)), f1(p10), f1(p50), f1(p90), meanRatio, trialRatio,
		})
	}
	cdf := Table{
		Caption: "Fig 6a — CDF of aggregate throughput (deciles)",
		Header:  []string{"percentile"},
	}
	for _, pr := range r.Results {
		cdf.Header = append(cdf.Header, pr.Policy+" Mbps")
	}
	for p := 10; p <= 90; p += 10 {
		row := []string{strconv.Itoa(p)}
		for _, pr := range r.Results {
			v, _ := stats.Percentile(pr.Aggregates(), float64(p))
			row = append(row, f1(v))
		}
		cdf.Rows = append(cdf.Rows, row)
	}
	return []Table{summary, cdf}
}

// Fig6bcResult covers Fig 6b (aggregate throughput at epoch boundaries
// under Poisson churn) and Fig 6c (WOLT re-assignments per epoch).
type Fig6bcResult struct {
	// WOLT and Greedy are per-epoch results for each policy.
	WOLT   []netsim.EpochResult
	Greedy []netsim.EpochResult
	// Anytime prices the warm local-search re-solve (wolt-hillclimb
	// with a probe budget) against the full per-epoch WOLT solve: same
	// churn trace, a fraction of the work.
	Anytime []netsim.EpochResult
}

// Fig6bc runs the dynamic simulation (paper: arrival rate 3, departure
// rate 1, population growing 36 → 66 → 102 across epochs).
func Fig6bc(opts Options) (*Fig6bcResult, error) {
	opts = opts.withDefaults(1)
	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	cfg := netsim.DynamicConfig{
		Topology:  scen.Topology,
		Radio:     &scen.Radio,
		Churn:     scen.Churn,
		EpochLen:  scen.EpochLen,
		ModelOpts: Redistribute,
	}
	wolt, err := netsim.RunDynamic(cfg, netsim.WOLTPolicy())
	if err != nil {
		return nil, err
	}
	greedy, err := netsim.RunDynamic(cfg, netsim.GreedyPolicy(Redistribute))
	if err != nil {
		return nil, err
	}
	anytime, err := netsim.RunDynamic(cfg, netsim.Policy{
		Name:     "Anytime",
		Strategy: "wolt-hillclimb",
		Config: strategy.Config{
			ModelOpts: Redistribute,
			Seed:      opts.Seed,
			Budget:    strategy.Budget{Probes: anytimeEpochProbes},
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig6bcResult{WOLT: wolt, Greedy: greedy, Anytime: anytime}, nil
}

// anytimeEpochProbes is the per-epoch probe budget of the anytime
// policy in the dynamic and mobility harnesses: enough for several full
// improvement passes at enterprise scale (users × DefaultNeighborhood ≈
// 300 probes per pass at 36 users), still ~1000× cheaper than the
// two-phase solve it replaces.
const anytimeEpochProbes = 2000

// Tables implements Tabler.
func (r *Fig6bcResult) Tables() []Table {
	b := Table{
		Caption: "Fig 6b — aggregate throughput per epoch under Poisson churn (paper: WOLT above Greedy throughout; anytime = budgeted warm local search)",
		Header:  []string{"epoch", "users", "WOLT Mbps", "Greedy Mbps", "Anytime Mbps", "ratio", "anytime/wolt"},
	}
	for k := range r.WOLT {
		anytime, anyRatio := "-", "-"
		if k < len(r.Anytime) {
			anytime = f1(r.Anytime[k].Aggregate)
			anyRatio = f2(stats.Ratio(r.Anytime[k].Aggregate, r.WOLT[k].Aggregate))
		}
		b.Rows = append(b.Rows, []string{
			strconv.Itoa(k + 1), strconv.Itoa(r.WOLT[k].Users),
			f1(r.WOLT[k].Aggregate), f1(r.Greedy[k].Aggregate), anytime,
			f2(stats.Ratio(r.WOLT[k].Aggregate, r.Greedy[k].Aggregate)), anyRatio,
		})
	}
	c := Table{
		Caption: "Fig 6c — WOLT re-assignments per epoch (paper: ≈ up to 2x the epoch's arrivals)",
		Header:  []string{"epoch", "arrivals", "departures", "reassignments", "reassign/arrival"},
	}
	for k, er := range r.WOLT {
		ratio := "-"
		if er.Arrivals > 0 {
			ratio = f2(float64(er.Reassignments) / float64(er.Arrivals))
		}
		c.Rows = append(c.Rows, []string{
			strconv.Itoa(k + 1), strconv.Itoa(er.Arrivals), strconv.Itoa(er.Departures),
			strconv.Itoa(er.Reassignments), ratio,
		})
	}
	return []Table{b, c}
}

// FairnessResult covers the §V-E fairness table: mean Jain's index per
// policy (paper: WOLT 0.66, Greedy 0.52, RSSI 0.65).
type FairnessResult struct {
	Results []netsim.StaticResult
}

// Fairness reuses the static enterprise simulation to compute Jain's
// fairness index per policy.
func Fairness(opts Options) (*FairnessResult, error) {
	opts = opts.withDefaults(30)
	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	cfg := netsim.StaticConfig{
		Ctx:       opts.Ctx,
		Topology:  scen.Topology,
		Radio:     &scen.Radio,
		Trials:    opts.Trials,
		ModelOpts: Redistribute,
		Workers:   opts.Workers,
	}
	results, err := netsim.RunStatic(cfg, simulationPolicies())
	if err != nil {
		return nil, err
	}
	return &FairnessResult{Results: results}, nil
}

// MeanJain returns the mean Jain index of the named policy, or 0.
func (r *FairnessResult) MeanJain(policy string) float64 {
	for _, pr := range r.Results {
		if pr.Policy == policy {
			return pr.MeanJain()
		}
	}
	return 0
}

// Tables implements Tabler.
func (r *FairnessResult) Tables() []Table {
	t := Table{
		Caption: "§V-E fairness — Jain's index (paper: WOLT 0.66, Greedy 0.52, RSSI 0.65)",
		Header:  []string{"policy", "mean Jain index", "mean aggregate Mbps"},
	}
	for _, pr := range r.Results {
		t.Rows = append(t.Rows, []string{pr.Policy, f2(pr.MeanJain()), f1(pr.MeanAggregate())})
	}
	return []Table{t}
}
