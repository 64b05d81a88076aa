package experiments

import (
	"fmt"
	"strconv"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/shard"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/topology"
)

// shardCounts are the shard-plane sizes compared against the global
// solve (K=1 IS the global solve: one member owning every extender).
var shardCounts = []int{1, 2, 4}

// ShardRun is one (user count, shard count) cell of the shard
// experiment, averaged over trials.
type ShardRun struct {
	Users  int
	Shards int
	// GlobalMbps is the aggregate throughput of the single global WOLT
	// solve (the K=1 plane); ShardedMbps is the K-shard plane's. GapPct
	// is the relative loss of partitioning the solve,
	// (global-sharded)/global. All three are bit-identical for any
	// Options.Workers (DESIGN.md §7).
	GlobalMbps  float64
	ShardedMbps float64
	GapPct      float64
	// MeanJoinMicros/P95JoinMicros are wall-clock per-join latencies of
	// the sharded plane — the scaling payoff: each join solves only its
	// shard's sub-instance. Timing is inherently non-deterministic and
	// excluded from the determinism contract.
	MeanJoinMicros float64
	P95JoinMicros  float64
}

// ShardResult is the sharded-control-plane experiment: the aggregate-
// throughput gap and per-join latency of K consistent-hash shards vs.
// the single global WOLT solve, across user counts.
type ShardResult struct {
	Extenders int
	Trials    int
	Runs      []ShardRun
}

// shardUnit is one (user count, trial) work unit's measurements.
type shardUnit struct {
	perK []shardOutcome
}

type shardOutcome struct {
	aggregate float64
	joinUs    []float64
}

// Shard measures how much association quality a sharded control plane
// gives up (and how much per-join latency it wins) as the extender set
// is partitioned across 1, 2 and 4 consistent-hash shards. Every trial
// builds an enterprise instance, joins its users in ID order through a
// shard.Coordinator per K, and evaluates the merged assignment on the
// full network model. Units fan out over Options.Workers with
// bit-identical aggregates for any worker count.
func Shard(opts Options) (*ShardResult, error) {
	opts = opts.withDefaults(3)
	userCounts := shardUserCounts(opts.Users)

	units := len(userCounts) * opts.Trials
	measured, err := parallel.Map(opts.context(), units, opts.Workers, func(i int) (shardUnit, error) {
		uc := i / opts.Trials
		seedT := seed.Derive(opts.Seed, seed.ShardTrial, int64(i))
		scen := NewEnterpriseScenario(opts.Extenders, userCounts[uc], seedT)
		topo, err := topology.Generate(scen.Topology)
		if err != nil {
			return shardUnit{}, err
		}
		inst := netsim.Build(topo, scen.Radio)

		unit := shardUnit{perK: make([]shardOutcome, len(shardCounts))}
		for ki, k := range shardCounts {
			out, err := runShardPlane(inst, k, seedT, opts.Workers)
			if err != nil {
				return shardUnit{}, err
			}
			unit.perK[ki] = out
		}
		return unit, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ShardResult{Extenders: opts.Extenders, Trials: opts.Trials}
	for uc, users := range userCounts {
		for ki, k := range shardCounts {
			var global, sharded float64
			var joins []float64
			for t := 0; t < opts.Trials; t++ {
				unit := measured[uc*opts.Trials+t]
				global += unit.perK[0].aggregate
				sharded += unit.perK[ki].aggregate
				joins = append(joins, unit.perK[ki].joinUs...)
			}
			global /= float64(opts.Trials)
			sharded /= float64(opts.Trials)
			gap := 0.0
			if global > 0 {
				gap = (global - sharded) / global * 100
			}
			p95, _ := stats.Percentile(joins, 95) // 0 for no joins, as before
			res.Runs = append(res.Runs, ShardRun{
				Users:          users,
				Shards:         k,
				GlobalMbps:     global,
				ShardedMbps:    sharded,
				GapPct:         gap,
				MeanJoinMicros: stats.Mean(joins),
				P95JoinMicros:  p95,
			})
		}
	}
	return res, nil
}

// runShardPlane joins every user of the instance (ascending row order,
// the arrival order of the static scenario) through a K-shard
// coordinator and evaluates the merged assignment on the FULL network:
// each extender belongs to exactly one shard, so the union of per-shard
// assignments is a valid global association.
func runShardPlane(inst *netsim.Instance, shards int, seedT int64, workers int) (shardOutcome, error) {
	coord, err := shard.NewCoordinator(shard.Config{
		Shards: shards,
		EngineConfig: control.EngineConfig{
			PLCCaps:   inst.Net.PLCCaps,
			Policy:    "wolt",
			ModelOpts: Redistribute,
			Workers:   workers,
			Seed:      seedT,
		},
	})
	if err != nil {
		return shardOutcome{}, err
	}
	n := inst.Net.NumUsers()
	out := shardOutcome{joinUs: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := coord.Join(i, inst.Net.WiFiRates[i], inst.RSSI[i]); err != nil {
			return shardOutcome{}, fmt.Errorf("shard experiment: join user %d (K=%d): %w", i, shards, err)
		}
		out.joinUs = append(out.joinUs, float64(time.Since(start))/float64(time.Microsecond))
	}
	st := coord.StatsWithAssignment()
	assign := make(model.Assignment, n)
	for i := range assign {
		assign[i] = model.Unassigned
		if ext, ok := st.Assignment[i]; ok {
			assign[i] = ext
		}
	}
	out.aggregate = model.Aggregate(inst.Net, assign, Redistribute)
	return out, nil
}

// shardUserCounts spans the experiment's population axis: one third,
// two thirds and the full Options.Users (at least 2 users each).
func shardUserCounts(users int) []int {
	counts := []int{users / 3, 2 * users / 3, users}
	for i, c := range counts {
		if c < 2 {
			counts[i] = 2
		}
	}
	// Deduplicate (tiny -users settings collapse the axis).
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// Tables implements Tabler.
func (r *ShardResult) Tables() []Table {
	t := Table{
		Caption: fmt.Sprintf("Shard experiment — K consistent-hash shards vs the global WOLT solve (%d extenders, %d trials)",
			r.Extenders, r.Trials),
		Header: []string{"users", "shards", "global Mbps", "sharded Mbps", "gap %",
			"mean join us", "p95 join us"},
	}
	for _, run := range r.Runs {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(run.Users), strconv.Itoa(run.Shards),
			f1(run.GlobalMbps), f1(run.ShardedMbps),
			strconv.FormatFloat(run.GapPct, 'f', 2, 64),
			f1(run.MeanJoinMicros), f1(run.P95JoinMicros),
		})
	}
	return []Table{t}
}
