package experiments

import (
	"fmt"
	"strconv"

	"github.com/plcwifi/wolt/internal/mobility"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

// MobilityTick is the network state at one mobility tick for all
// strategies.
type MobilityTick struct {
	Tick int
	// Aggregate throughput per strategy, Mbps. Anytime is the warm
	// local-search world (wolt-hillclimb under a probe budget): every
	// tick repairs the previous association instead of re-solving.
	Static, Roaming, FullWOLT, Budgeted, Anytime float64
	// Moves this tick per re-associating strategy.
	RoamingMoves, FullMoves, BudgetedMoves, AnytimeMoves int
}

// MobilityResult is the mobility experiment (beyond the paper): users
// walk (random waypoint), rates drift, and five re-association
// strategies are compared — assign-once, per-tick strongest-signal
// roaming, per-tick full WOLT recomputation, the budgeted incremental
// WOLT extension, and the anytime warm local search.
type MobilityResult struct {
	Ticks []MobilityTick
	// Budget is the per-tick move budget of the incremental strategy.
	Budget int
}

// Mobility runs the mobility experiment: Options.Users walkers on the
// enterprise floor for Options.Trials ticks of 10 simulated seconds
// (default 20 ticks). Ticks are inherently sequential (each continues
// the walkers' motion), but the five strategies own identical,
// independent worlds, so within a tick the worlds advance concurrently
// on Options.Workers goroutines with bit-identical results for any
// worker count.
func Mobility(opts Options) (*MobilityResult, error) {
	opts = opts.withDefaults(20)
	const (
		tickSeconds = 10.0
		moveBudget  = 3
	)

	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	// Each strategy owns an identical copy of the world so motion is
	// replayed identically. The per-tick re-association rules come from
	// the strategy registry: "" = never reassign, "rssi" = roam to the
	// strongest extender, "wolt" = full recompute, "wolt-incremental" =
	// budgeted moves toward the WOLT target.
	type world struct {
		topo     *topology.Topology
		fleet    *mobility.Fleet
		assign   model.Assignment
		strategy strategy.Reassigner // nil for the static world
	}
	newWorld := func(name string) (*world, error) {
		topo, err := topology.Generate(scen.Topology)
		if err != nil {
			return nil, err
		}
		mcfg := mobility.DefaultConfig()
		mcfg.Seed = opts.Seed
		fleet, err := mobility.NewFleet(topo, mcfg)
		if err != nil {
			return nil, err
		}
		w := &world{topo: topo, fleet: fleet}
		if name != "" {
			cfg := strategy.Config{
				ModelOpts: Redistribute,
				Budget:    strategy.Budget{Moves: moveBudget},
				Seed:      opts.Seed,
			}
			if name == "wolt-hillclimb" {
				// The anytime world is probe-budgeted, not move-capped:
				// the comparison it prices is "full solve every tick"
				// vs "O(probes) warm repair every tick".
				cfg.Budget = strategy.Budget{Probes: anytimeEpochProbes}
			}
			st, err := strategy.New(name, cfg)
			if err != nil {
				return nil, err
			}
			re, ok := st.(strategy.Reassigner)
			if !ok {
				return nil, fmt.Errorf("experiments: strategy %q cannot reassign: %w",
					name, strategy.ErrNoOnlineForm)
			}
			w.strategy = re
		}
		return w, nil
	}
	// static, roaming, full, budgeted, anytime
	worldStrategies := []string{"", "rssi", "wolt", "wolt-incremental", "wolt-hillclimb"}
	worlds := make([]*world, len(worldStrategies))
	for k, name := range worldStrategies {
		w, err := newWorld(name)
		if err != nil {
			return nil, err
		}
		worlds[k] = w
	}

	// Initial association: WOLT everywhere (roaming starts from the same
	// state and drifts by signal afterwards).
	for _, w := range worlds {
		inst := netsim.Build(w.topo, scen.Radio)
		initial, err := strategy.New("wolt", strategy.Config{})
		if err != nil {
			return nil, err
		}
		w.assign, err = initial.Solve(inst.Net)
		if err != nil {
			return nil, err
		}
	}

	// stepOut is one world's outcome at one tick.
	type stepOut struct {
		aggregate float64
		moves     int
	}
	ctx := opts.context()
	result := &MobilityResult{Budget: moveBudget}
	for tick := 0; tick < opts.Trials; tick++ {
		// Each task owns world k outright (its fleet RNG, topology and
		// assignment are touched by no other task), so concurrent
		// stepping cannot reorder any random draws.
		steps, err := parallel.Map(ctx, len(worlds), opts.Workers, func(k int) (stepOut, error) {
			w := worlds[k]
			if err := w.fleet.Advance(tickSeconds); err != nil {
				return stepOut{}, err
			}
			inst := netsim.Build(w.topo, scen.Radio)
			var out stepOut
			if w.strategy != nil {
				// Reassign edits w.assign in place: snapshot it to count
				// the moves.
				before := w.assign.Clone()
				next, err := w.strategy.Reassign(inst.Net, w.assign)
				if err != nil {
					return stepOut{}, err
				}
				out.moves = before.Diff(next)
				w.assign = next
			}
			out.aggregate = model.Aggregate(inst.Net, w.assign, Redistribute)
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		result.Ticks = append(result.Ticks, MobilityTick{
			Tick:          tick + 1,
			Static:        steps[0].aggregate,
			Roaming:       steps[1].aggregate,
			FullWOLT:      steps[2].aggregate,
			Budgeted:      steps[3].aggregate,
			Anytime:       steps[4].aggregate,
			RoamingMoves:  steps[1].moves,
			FullMoves:     steps[2].moves,
			BudgetedMoves: steps[3].moves,
			AnytimeMoves:  steps[4].moves,
		})
	}
	return result, nil
}

// Means returns the per-strategy mean aggregates.
func (r *MobilityResult) Means() (staticMean, roaming, full, budgeted float64) {
	var s, ro, fu, bu []float64
	for _, t := range r.Ticks {
		s = append(s, t.Static)
		ro = append(ro, t.Roaming)
		fu = append(fu, t.FullWOLT)
		bu = append(bu, t.Budgeted)
	}
	return stats.Mean(s), stats.Mean(ro), stats.Mean(fu), stats.Mean(bu)
}

// TotalMoves returns the per-strategy total re-associations.
func (r *MobilityResult) TotalMoves() (roaming, full, budgeted int) {
	for _, t := range r.Ticks {
		roaming += t.RoamingMoves
		full += t.FullMoves
		budgeted += t.BudgetedMoves
	}
	return roaming, full, budgeted
}

// AnytimeSummary returns the anytime world's mean aggregate and total
// re-associations. (Means/TotalMoves keep their original four- and
// three-value signatures for existing callers.)
func (r *MobilityResult) AnytimeSummary() (mean float64, moves int) {
	var a []float64
	for _, t := range r.Ticks {
		a = append(a, t.Anytime)
		moves += t.AnytimeMoves
	}
	return stats.Mean(a), moves
}

// Tables implements Tabler.
func (r *MobilityResult) Tables() []Table {
	perTick := Table{
		Caption: "Mobility — aggregate throughput under random-waypoint motion (10 s ticks)",
		Header: []string{"tick", "static Mbps", "roaming Mbps", "WOLT full Mbps",
			"WOLT budget Mbps", "anytime Mbps", "full moves", "budget moves", "anytime moves"},
	}
	for _, t := range r.Ticks {
		perTick.Rows = append(perTick.Rows, []string{
			strconv.Itoa(t.Tick), f1(t.Static), f1(t.Roaming), f1(t.FullWOLT), f1(t.Budgeted), f1(t.Anytime),
			strconv.Itoa(t.FullMoves), strconv.Itoa(t.BudgetedMoves), strconv.Itoa(t.AnytimeMoves),
		})
	}
	sMean, roMean, fuMean, buMean := r.Means()
	roMoves, fuMoves, buMoves := r.TotalMoves()
	anyMean, anyMoves := r.AnytimeSummary()
	summary := Table{
		Caption: "Mobility — summary (budgeted = at most " + strconv.Itoa(r.Budget) + " moves/tick; anytime = warm local search, probe-budgeted)",
		Header:  []string{"strategy", "mean Mbps", "total moves"},
		Rows: [][]string{
			{"static (assign once)", f1(sMean), "0"},
			{"roaming RSSI", f1(roMean), strconv.Itoa(roMoves)},
			{"WOLT full recompute", f1(fuMean), strconv.Itoa(fuMoves)},
			{"WOLT incremental", f1(buMean), strconv.Itoa(buMoves)},
			{"WOLT anytime (hillclimb)", f1(anyMean), strconv.Itoa(anyMoves)},
		},
	}
	return []Table{summary, perTick}
}
