package experiments

import (
	"sort"
	"strconv"

	"github.com/plcwifi/wolt/internal/emu"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/topology"
)

// testbedPolicies are the three systems compared on the paper's testbed.
func testbedPolicies() []netsim.Policy {
	return []netsim.Policy{
		netsim.WOLTPolicy(),
		netsim.GreedyPolicy(Redistribute),
		netsim.RSSIPolicy(),
	}
}

// Fig4PolicyResult is one policy's outcome over all testbed topologies.
type Fig4PolicyResult struct {
	Name string
	// ModelMbps and MeasuredMbps are per-topology aggregates: the
	// flow-level model's prediction and the emulated testbed's real-TCP
	// measurement.
	ModelMbps    []float64
	MeasuredMbps []float64
}

// Fig4Result covers the paper's Fig 4a (mean aggregate throughput per
// policy), Fig 4b (per-user win/loss fractions of WOLT vs each baseline)
// and Fig 4c (simulation-vs-testbed fidelity).
type Fig4Result struct {
	Policies []Fig4PolicyResult

	// BetterVsGreedy is the fraction of users with strictly higher
	// throughput under WOLT than under Greedy (paper: 35%); WorseVsGreedy
	// is the complement with strictly lower (paper: 65%).
	BetterVsGreedy, WorseVsGreedy float64
	// BetterVsRSSI / WorseVsRSSI mirror the RSSI comparison (paper:
	// 55% / 45%).
	BetterVsRSSI, WorseVsRSSI float64

	// ImprovementOverGreedy/RSSI are mean-aggregate ratios minus one
	// (paper: +26% and +70%).
	ImprovementOverGreedy float64
	ImprovementOverRSSI   float64
}

// fig4Trial is one topology's outcome across all policies: the model
// prediction, the emulated measurement and the per-user measured rates.
type fig4Trial struct {
	model    []float64   // per policy
	measured []float64   // per policy
	perUser  [][]float64 // [policy][user] measured Mbps
}

// Fig4 runs the emulated-testbed comparison: Options.Trials random
// topologies of the testbed scenario (default 25, as in the paper), all
// three policies, real TCP measurement per run. Trials fan out over
// Options.Workers goroutines; the model-side numbers are bit-identical
// for any worker count (the measured numbers carry the emulator's real
// TCP noise either way).
func Fig4(opts Options) (*Fig4Result, error) {
	opts = opts.withDefaults(25)
	policies := testbedPolicies()
	res := &Fig4Result{Policies: make([]Fig4PolicyResult, len(policies))}
	for p, policy := range policies {
		res.Policies[p].Name = policy.Name
	}

	trials, err := parallel.Map(opts.context(), opts.Trials, opts.Workers, func(trial int) (fig4Trial, error) {
		scen := NewTestbedScenario(seed.Derive(opts.Seed, seed.Fig4Trial, int64(trial)))
		topo, err := topology.Generate(scen.Topology)
		if err != nil {
			return fig4Trial{}, err
		}
		inst := netsim.Build(topo, scen.Radio)

		out := fig4Trial{
			model:    make([]float64, len(policies)),
			measured: make([]float64, len(policies)),
			perUser:  make([][]float64, len(policies)),
		}
		for p, policy := range policies {
			assign, err := policy.Assign(inst)
			if err != nil {
				return fig4Trial{}, err
			}
			run, err := emu.Run(emu.Config{
				Net:      inst.Net,
				Assign:   assign,
				Opts:     Redistribute,
				Duration: opts.EmuDuration,
			})
			if err != nil {
				return fig4Trial{}, err
			}
			out.model[p] = run.ModelAggregateMbps
			out.measured[p] = run.AggregateMbps
			users := make([]float64, len(inst.UserIDs))
			for _, f := range run.Flows {
				users[f.User] = f.MeasuredMbps
			}
			out.perUser[p] = users
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in trial order so float summation and the per-topology
	// series are independent of scheduling.
	var betterG, worseG, betterR, worseR, totalUsers int
	for _, tr := range trials {
		for p := range policies {
			res.Policies[p].ModelMbps = append(res.Policies[p].ModelMbps, tr.model[p])
			res.Policies[p].MeasuredMbps = append(res.Policies[p].MeasuredMbps, tr.measured[p])
		}
		// Per-user win/loss fractions (Fig 4b): WOLT is policy 0, Greedy
		// 1, RSSI 2. A 2% band absorbs emulation measurement noise.
		const band = 0.02
		for i := range tr.perUser[0] {
			totalUsers++
			switch {
			case tr.perUser[0][i] > tr.perUser[1][i]*(1+band):
				betterG++
			case tr.perUser[0][i] < tr.perUser[1][i]*(1-band):
				worseG++
			}
			switch {
			case tr.perUser[0][i] > tr.perUser[2][i]*(1+band):
				betterR++
			case tr.perUser[0][i] < tr.perUser[2][i]*(1-band):
				worseR++
			}
		}
	}

	if totalUsers > 0 {
		res.BetterVsGreedy = float64(betterG) / float64(totalUsers)
		res.WorseVsGreedy = float64(worseG) / float64(totalUsers)
		res.BetterVsRSSI = float64(betterR) / float64(totalUsers)
		res.WorseVsRSSI = float64(worseR) / float64(totalUsers)
	}
	wolt := stats.Mean(res.Policies[0].MeasuredMbps)
	res.ImprovementOverGreedy = stats.Ratio(wolt, stats.Mean(res.Policies[1].MeasuredMbps)) - 1
	res.ImprovementOverRSSI = stats.Ratio(wolt, stats.Mean(res.Policies[2].MeasuredMbps)) - 1
	return res, nil
}

// Tables implements Tabler.
func (r *Fig4Result) Tables() []Table {
	a := Table{
		Caption: "Fig 4a — emulated testbed, mean aggregate throughput (paper: WOLT +26% vs Greedy, +70% vs RSSI)",
		Header:  []string{"policy", "mean measured Mbps", "mean model Mbps", "topologies"},
	}
	for _, p := range r.Policies {
		a.Rows = append(a.Rows, []string{
			p.Name, f1(stats.Mean(p.MeasuredMbps)), f1(stats.Mean(p.ModelMbps)),
			strconv.Itoa(len(p.MeasuredMbps)),
		})
	}
	b := Table{
		Caption: "Fig 4b — per-user effects of WOLT (paper: 35% better vs Greedy, 55% better vs RSSI)",
		Header:  []string{"comparison", "better", "worse", "unchanged"},
		Rows: [][]string{
			{"WOLT vs Greedy", pct(r.BetterVsGreedy), pct(r.WorseVsGreedy),
				pct(1 - r.BetterVsGreedy - r.WorseVsGreedy)},
			{"WOLT vs RSSI", pct(r.BetterVsRSSI), pct(r.WorseVsRSSI),
				pct(1 - r.BetterVsRSSI - r.WorseVsRSSI)},
		},
	}
	c := Table{
		Caption: "Fig 4c — fidelity: emulated-testbed measurement vs flow-level model (WOLT runs)",
		Header:  []string{"topology", "model Mbps", "measured Mbps", "ratio"},
	}
	for k := range r.Policies[0].ModelMbps {
		c.Rows = append(c.Rows, []string{
			strconv.Itoa(k), f1(r.Policies[0].ModelMbps[k]), f1(r.Policies[0].MeasuredMbps[k]),
			f2(stats.Ratio(r.Policies[0].MeasuredMbps[k], r.Policies[0].ModelMbps[k])),
		})
	}
	return []Table{a, b, c}
}

// Fig5User is one user's throughput under WOLT and Greedy.
type Fig5User struct {
	User       int
	WOLTMbps   float64
	GreedyMbps float64
}

// Fig5Result covers Fig 5a/5b: the per-user WOLT-vs-Greedy comparison for
// the three worst and three best WOLT users on one testbed topology.
type Fig5Result struct {
	Worst []Fig5User
	Best  []Fig5User
	// WorstDeltaMbps is the total throughput the worst-3 users lose under
	// WOLT relative to Greedy (paper: ≈6 Mbps); BestDeltaMbps is the
	// total the best-3 gain (paper: ≈38 Mbps).
	WorstDeltaMbps float64
	BestDeltaMbps  float64
}

// Fig5 measures per-user effects on one emulated-testbed topology.
func Fig5(opts Options) (*Fig5Result, error) {
	opts = opts.withDefaults(1)
	scen := NewTestbedScenario(opts.Seed)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		return nil, err
	}
	inst := netsim.Build(topo, scen.Radio)

	perUser := make(map[string][]float64)
	for _, policy := range []netsim.Policy{netsim.WOLTPolicy(), netsim.GreedyPolicy(Redistribute)} {
		assign, err := policy.Assign(inst)
		if err != nil {
			return nil, err
		}
		run, err := emu.Run(emu.Config{
			Net:      inst.Net,
			Assign:   assign,
			Opts:     Redistribute,
			Duration: opts.EmuDuration,
		})
		if err != nil {
			return nil, err
		}
		users := make([]float64, len(inst.UserIDs))
		for _, f := range run.Flows {
			users[f.User] = f.MeasuredMbps
		}
		perUser[policy.Name] = users
	}

	users := make([]Fig5User, len(inst.UserIDs))
	for i := range users {
		users[i] = Fig5User{
			User:       i,
			WOLTMbps:   perUser["WOLT"][i],
			GreedyMbps: perUser["Greedy"][i],
		}
	}
	sort.Slice(users, func(i, j int) bool { return users[i].WOLTMbps < users[j].WOLTMbps })
	k := 3
	if len(users) < 2*k {
		k = len(users) / 2
	}
	res := &Fig5Result{
		Worst: append([]Fig5User(nil), users[:k]...),
		Best:  append([]Fig5User(nil), users[len(users)-k:]...),
	}
	for _, u := range res.Worst {
		res.WorstDeltaMbps += u.WOLTMbps - u.GreedyMbps
	}
	for _, u := range res.Best {
		res.BestDeltaMbps += u.WOLTMbps - u.GreedyMbps
	}
	return res, nil
}

// Tables implements Tabler.
func (r *Fig5Result) Tables() []Table {
	mk := func(caption string, users []Fig5User, delta float64) Table {
		t := Table{
			Caption: caption,
			Header:  []string{"user", "WOLT Mbps", "Greedy Mbps", "delta"},
		}
		for _, u := range users {
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(u.User), f1(u.WOLTMbps), f1(u.GreedyMbps), f1(u.WOLTMbps - u.GreedyMbps),
			})
		}
		t.Rows = append(t.Rows, []string{"total Δ", "", "", f1(delta)})
		return t
	}
	return []Table{
		mk("Fig 5a — the three WOLT-worst users (paper: modest total loss ≈ -6 Mbps)", r.Worst, r.WorstDeltaMbps),
		mk("Fig 5b — the three WOLT-best users (paper: total gain ≈ +38 Mbps)", r.Best, r.BestDeltaMbps),
	}
}
