// Package sweep runs parameter sweeps over the enterprise simulation:
// grids of (extenders × users × PLC capacity range) with every policy,
// producing the sensitivity picture behind the paper's single-point
// results ("up to 15 extenders and 124 clients", §V-E) — where WOLT's
// advantage grows, where it vanishes, and where the PLC-saturation
// degeneracy (DESIGN.md §6) sets in.
package sweep

import (
	"context"
	"fmt"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/topology"
)

// Point is one grid cell of the sweep.
type Point struct {
	Extenders int
	Users     int
	// CapMin/CapMax bound the PLC isolation capacities (Mbps).
	CapMin, CapMax float64
}

// Config parameterizes a sweep.
type Config struct {
	// Points is the grid to evaluate.
	Points []Point
	// Trials is the number of random topologies per point (default 10).
	Trials int
	// Seed drives all randomness.
	Seed int64
	// ModelOpts selects the evaluation model (redistribution on by
	// default-zero semantics is NOT applied here; set explicitly).
	ModelOpts model.Options
	// Workers bounds the goroutines evaluating (point, trial) tasks
	// concurrently; <= 0 uses all available cores. Results are identical
	// for every worker count: each task's seed depends only on its grid
	// point and trial index, never on scheduling.
	Workers int
	// Ctx cancels a running sweep between tasks; nil means
	// context.Background(). On cancellation Run returns promptly with
	// the context's error.
	Ctx context.Context
}

// Grid builds the cartesian product of the given axes with a fixed
// capacity range.
func Grid(extenders, users []int, capMin, capMax float64) []Point {
	var points []Point
	for _, e := range extenders {
		for _, u := range users {
			points = append(points, Point{Extenders: e, Users: u, CapMin: capMin, CapMax: capMax})
		}
	}
	return points
}

// Result is the outcome at one grid point.
type Result struct {
	Point Point
	// Mean aggregate throughput per policy, Mbps.
	WOLT, Greedy, Selfish, RSSI float64
	// Ratios of WOLT's mean over each baseline's.
	VsGreedy, VsSelfish, VsRSSI float64
	// SaturationIndex is the mean fraction of extenders whose PLC side
	// is the end-to-end bottleneck under WOLT — near 1.0 flags the
	// degenerate regime where association stops mattering.
	SaturationIndex float64
}

// Run evaluates every grid point. The (point × trial) task grid is
// flattened and fanned out over cfg.Workers goroutines; the task for
// point pi, trial t seeds its topology with the nested derivation
// seed.Derive(seed.Derive(Seed, SweepPoint, pi), SweepTrial, t), so the
// output is bit-identical for every worker count. The saturation index
// is computed from the WOLT evaluation each trial already performs —
// the trials are not re-solved for it.
func Run(cfg Config) ([]Result, error) {
	if len(cfg.Points) == 0 {
		return nil, fmt.Errorf("sweep: no grid points")
	}
	for _, pt := range cfg.Points {
		if pt.Extenders <= 0 || pt.Users <= 0 || pt.CapMin <= 0 || pt.CapMax < pt.CapMin {
			return nil, fmt.Errorf("sweep: bad point %+v", pt)
		}
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 10
	}
	rm := cfg.radioModel()
	// The policy values are stateless and shared by all workers.
	policies := []netsim.Policy{
		netsim.WOLTPolicy(),
		netsim.GreedyPolicy(cfg.ModelOpts),
		netsim.SelfishPolicy(cfg.ModelOpts),
		netsim.RSSIPolicy(),
	}

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := parallel.Workers(cfg.Workers)
	nTasks := len(cfg.Points) * trials
	trialGrid, err := parallel.Map(ctx, nTasks, workers, func(t int) ([]netsim.TrialResult, error) {
		pi, trial := t/trials, t%trials
		pt := cfg.Points[pi]
		pointSeed := seed.Derive(cfg.Seed, seed.SweepPoint, int64(pi))
		topoCfg := topology.Config{
			Width: 100, Height: 100,
			NumExtenders:       pt.Extenders,
			NumUsers:           pt.Users,
			PLCCapacityMinMbps: pt.CapMin,
			PLCCapacityMaxMbps: pt.CapMax,
			Seed:               seed.Derive(pointSeed, seed.SweepTrial, int64(trial)),
		}
		trs, err := netsim.RunTrial(topoCfg, rm, policies, cfg.ModelOpts)
		if err != nil {
			return nil, fmt.Errorf("sweep point %+v: %w", pt, err)
		}
		return trs, nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]Result, len(cfg.Points))
	agg := make([]float64, trials)
	sat := make([]float64, trials)
	for pi, pt := range cfg.Points {
		var means [4]float64
		for p := range policies {
			for trial := 0; trial < trials; trial++ {
				agg[trial] = trialGrid[pi*trials+trial][p].Aggregate
			}
			means[p] = stats.Mean(agg)
		}
		for trial := 0; trial < trials; trial++ {
			sat[trial] = trialGrid[pi*trials+trial][0].SaturationFraction
		}
		res := Result{
			Point:           pt,
			WOLT:            means[0],
			Greedy:          means[1],
			Selfish:         means[2],
			RSSI:            means[3],
			SaturationIndex: stats.Mean(sat),
		}
		res.VsGreedy = stats.Ratio(res.WOLT, res.Greedy)
		res.VsSelfish = stats.Ratio(res.WOLT, res.Selfish)
		res.VsRSSI = stats.Ratio(res.WOLT, res.RSSI)
		results[pi] = res
	}
	return results, nil
}

// radioModel is the enterprise calibration of the WiFi model (14 dBm,
// exponent 3.5, 7 dB shadowing).
func (c Config) radioModel() radio.Model {
	rm := radio.DefaultModel()
	rm.Channel.TxPowerDBm = 14
	rm.Channel.PathLossExponent = 3.5
	rm.ShadowSeed = c.Seed
	return rm
}
