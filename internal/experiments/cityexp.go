package experiments

import (
	"fmt"
	"strconv"

	"github.com/plcwifi/wolt/internal/city"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/strategy"
)

// cityShardCounts is the experiment's shard-plane axis.
var cityShardCounts = []int{2, 4}

// CityRun is one (shard count, lane count) row of the city experiment,
// averaged over trials. The event/handoff columns are bit-identical for
// any Options.Workers (DESIGN.md §7); the latency/throughput columns are
// wall-clock measurements of this host and excluded from the determinism
// contract.
type CityRun struct {
	// Plane names the control plane driven: "coordinator" (in-process)
	// or "tcp" (real sockets).
	Plane       string
	Shards      int
	TargetUsers int
	// Lanes is the number of dispatch worker lanes driving the plane
	// (city.Config.Concurrency); 1 is the sequential reference mode.
	Lanes int
	// Events/Joins/Leaves/Updates/Directives are mean per-trial operation
	// counts driven into the plane.
	Events     float64
	Joins      float64
	Leaves     float64
	Updates    float64
	Directives float64
	// PeakUsers/FinalUsers describe the sustained population.
	PeakUsers  float64
	FinalUsers float64
	// Handoffs/HandoffRate price roaming across shard boundaries;
	// Reassociations counts policy-initiated moves.
	Handoffs       float64
	HandoffRate    float64
	Reassociations float64
	// JoinsPerSec/P50Micros/P99Micros are wall-clock (non-deterministic).
	JoinsPerSec float64
	P50Micros   float64
	P99Micros   float64
}

// CityResult is the city-harness experiment: an event-driven
// arrival/departure/roaming stream with a diurnal load curve, driven
// against sharded planes of increasing width under the anytime policy.
type CityResult struct {
	Trials int
	Runs   []CityRun
}

// City prices the sharded control plane under the event-driven city
// workload (internal/city): M/M/∞ churn toward a target population of
// 10×Options.Users, diurnal arrival shaping, per-user roaming, the
// wolt-hillclimb policy under a 200-probe budget with leave-time
// repairs. Each (shard count, trial) unit fans out over Options.Workers
// with bit-identical event counters for any worker count.
func City(opts Options) (*CityResult, error) {
	opts = opts.withDefaults(3)
	target := 10 * opts.Users
	planeName := opts.Plane
	if planeName == "" {
		planeName = "coordinator"
	}
	switch planeName {
	case "coordinator", "tcp":
	default:
		return nil, fmt.Errorf("experiments: unknown city plane %q", planeName)
	}

	// Lane axis: sequential only by default; Options.Concurrency > 1 adds
	// a concurrent-dispatch row per shard count. Trial seeds are derived
	// from (shard index, trial) only, so the lane-1 and lane-N rows replay
	// the same event streams and their event counters compare. In lane>1
	// rows the directive/reassociation counts join the wall-clock columns
	// as interleaving-dependent: re-solving policies see operations in
	// scheduler order across lanes.
	laneChoices := []int{1}
	if opts.Concurrency > 1 {
		laneChoices = append(laneChoices, opts.Concurrency)
	}

	units := len(cityShardCounts) * len(laneChoices) * opts.Trials
	perShard := len(laneChoices) * opts.Trials
	measured, err := parallel.Map(opts.context(), units, opts.Workers, func(i int) (city.Result, error) {
		si := i / perShard
		li := (i % perShard) / opts.Trials
		trial := i % opts.Trials
		shards := cityShardCounts[si]
		eps := opts.Extenders / shards
		if eps < 1 {
			eps = 1
		}
		return runCityPlane(city.Config{
			Shards:            shards,
			ExtendersPerShard: eps,
			TargetUsers:       target,
			Horizon:           40,
			DwellMean:         20,
			UpdateMean:        30,
			DiurnalFloor:      0.4,
			Policy:            "wolt-hillclimb",
			Budget:            strategy.Budget{Probes: 200},
			ReassignOnLeave:   true,
			Workers:           opts.Workers,
			Concurrency:       laneChoices[li],
			Seed:              seed.Derive(opts.Seed, seed.CityTrial, int64(si*opts.Trials+trial)),
		}, planeName)
	})
	if err != nil {
		return nil, err
	}

	res := &CityResult{Trials: opts.Trials}
	for si, shards := range cityShardCounts {
		for li, lanes := range laneChoices {
			run := CityRun{Plane: planeName, Shards: shards, TargetUsers: target, Lanes: lanes}
			for t := 0; t < opts.Trials; t++ {
				r := measured[si*perShard+li*opts.Trials+t]
				run.Events += float64(r.Events)
				run.Joins += float64(r.Joins)
				run.Leaves += float64(r.Leaves)
				run.Updates += float64(r.Updates)
				run.Directives += float64(r.Directives)
				run.PeakUsers += float64(r.PeakUsers)
				run.FinalUsers += float64(r.FinalUsers)
				run.Handoffs += float64(r.Handoffs)
				run.HandoffRate += r.HandoffRate
				run.Reassociations += float64(r.Reassociations)
				run.JoinsPerSec += r.JoinsPerSec
				run.P50Micros += float64(r.P50Latency.Microseconds())
				run.P99Micros += float64(r.P99Latency.Microseconds())
			}
			n := float64(opts.Trials)
			run.Events /= n
			run.Joins /= n
			run.Leaves /= n
			run.Updates /= n
			run.Directives /= n
			run.PeakUsers /= n
			run.FinalUsers /= n
			run.Handoffs /= n
			run.HandoffRate /= n
			run.Reassociations /= n
			run.JoinsPerSec /= n
			run.P50Micros /= n
			run.P99Micros /= n
			res.Runs = append(res.Runs, run)
		}
	}
	return res, nil
}

// runCityPlane prepares a city and replays it against the selected
// plane kind: the in-process coordinator, or a TCP plane hosting its
// shard members in-process on ephemeral ports.
func runCityPlane(cfg city.Config, planeName string) (city.Result, error) {
	c, err := city.New(cfg)
	if err != nil {
		return city.Result{}, err
	}
	if planeName == "coordinator" {
		coord, err := c.NewCoordinator()
		if err != nil {
			return city.Result{}, err
		}
		return c.Run(coord)
	}
	plane, err := c.NewTCPPlane(city.TCPConfig{})
	if err != nil {
		return city.Result{}, err
	}
	defer plane.Close()
	return c.Run(plane)
}

// Tables implements Tabler.
func (r *CityResult) Tables() []Table {
	t := Table{
		Caption: fmt.Sprintf("City harness — event-driven churn/roaming on sharded planes, wolt-hillclimb @200 probes (%d trials; latency columns are wall-clock)",
			r.Trials),
		Header: []string{"plane", "shards", "lanes", "target users", "events", "joins", "updates",
			"handoffs", "handoff rate", "reassoc", "joins/sec", "p50 us", "p99 us"},
	}
	for _, run := range r.Runs {
		t.Rows = append(t.Rows, []string{
			run.Plane, strconv.Itoa(run.Shards), strconv.Itoa(run.Lanes), strconv.Itoa(run.TargetUsers),
			f1(run.Events), f1(run.Joins), f1(run.Updates),
			f1(run.Handoffs), strconv.FormatFloat(run.HandoffRate, 'f', 3, 64),
			f1(run.Reassociations), f1(run.JoinsPerSec), f1(run.P50Micros), f1(run.P99Micros),
		})
	}
	return []Table{t}
}
