package netsim

import (
	"fmt"
	"math"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/topology"
	"github.com/plcwifi/wolt/internal/workload"
)

// DynamicConfig parameterizes churn experiments (the paper's Fig 6b/6c).
type DynamicConfig struct {
	// Topology describes the floor plan and extender deployment;
	// Topology.NumUsers is the initial population.
	Topology topology.Config
	// Radio is the WiFi model; nil selects radio.DefaultModel.
	Radio *radio.Model
	// Churn drives arrivals/departures. Churn.InitialUsers is overridden
	// with Topology.NumUsers.
	Churn workload.Config
	// EpochLen is the time between controller recomputations. The
	// paper's growth trajectory (36→66→102 with rates 3/1) corresponds
	// to epochs of ~16 time units.
	EpochLen  float64
	ModelOpts model.Options
}

func (c DynamicConfig) radioModel() radio.Model {
	if c.Radio != nil {
		return *c.Radio
	}
	return radio.DefaultModel()
}

// EpochResult is the network state at one epoch boundary, after the
// policy's recomputation.
type EpochResult struct {
	Epoch      int
	Users      int
	Arrivals   int
	Departures int
	Aggregate  float64
	Jain       float64
	// Reassignments counts users whose extender changed in the epoch-end
	// recomputation (arrival-time initial associations do not count).
	Reassignments int
}

// RunDynamic replays a churn trace against one policy: arrivals are
// placed by the policy's online rule the moment they appear, departures
// free their extender, and at every epoch boundary the policy may
// recompute the full association (WOLT does; the baselines do not).
// The trace builds one strategy instance from the policy's Config.
func RunDynamic(cfg DynamicConfig, policy Policy) ([]EpochResult, error) {
	if cfg.EpochLen <= 0 {
		return nil, fmt.Errorf("netsim: non-positive epoch length %v", cfg.EpochLen)
	}
	churn := cfg.Churn
	churn.InitialUsers = cfg.Topology.NumUsers
	if churn.Horizon <= 0 {
		return nil, fmt.Errorf("netsim: non-positive churn horizon %v", churn.Horizon)
	}
	events, err := workload.Generate(churn)
	if err != nil {
		return nil, err
	}

	topo, err := topology.Generate(cfg.Topology)
	if err != nil {
		return nil, err
	}
	// Positions for arriving users come from a dedicated stream so the
	// trace and the geometry stay independently reproducible.
	posRng := seed.Rand(cfg.Topology.Seed, seed.NetsimPositions, 0)

	// Current association, keyed by topology user ID.
	current := make(map[int]int, len(topo.Users))

	// One strategy instance serves the whole trace: its delta evaluator
	// and solver scratches persist across arrivals and epochs instead of
	// being rebuilt per event, and full evaluations share one scratch.
	st, err := policy.newStrategy()
	if err != nil {
		return nil, err
	}
	var eval model.EvalScratch

	rm := cfg.radioModel()
	inst := Build(topo, rm)
	assign := newUnassigned(len(topo.Users))
	for i := range topo.Users {
		if err := arrive(st, inst, assign, i); err != nil {
			return nil, err
		}
		current[inst.UserIDs[i]] = assign[i]
	}

	numEpochs := int(math.Ceil(churn.Horizon / cfg.EpochLen))
	results := make([]EpochResult, 0, numEpochs)
	evIdx := 0
	for epoch := 0; epoch < numEpochs; epoch++ {
		boundary := float64(epoch+1) * cfg.EpochLen
		arrivals, departures := 0, 0
		for evIdx < len(events) && events[evIdx].Time <= boundary {
			ev := events[evIdx]
			evIdx++
			switch ev.Kind {
			case workload.Arrival:
				if err := topo.AddUserWithID(ev.UserID, topo.RandomPoint(posRng)); err != nil {
					return nil, err
				}
				inst = Build(topo, rm)
				assign = assignFromMap(inst, current)
				row := rowOf(inst, ev.UserID)
				if row < 0 {
					return nil, fmt.Errorf("netsim: arrived user %d missing from topology", ev.UserID)
				}
				if err := arrive(st, inst, assign, row); err != nil {
					return nil, err
				}
				current[ev.UserID] = assign[row]
				arrivals++
			case workload.Departure:
				topo.RemoveUser(ev.UserID)
				delete(current, ev.UserID)
				departures++
			}
		}

		inst = Build(topo, rm)
		assign = assignFromMap(inst, current)
		// Reassign edits assign in place: keep the pre-epoch association
		// to count the moves.
		before := assign.Clone()
		newAssign, err := reassign(st, inst, assign)
		if err != nil {
			return nil, err
		}
		reassigned := before.Diff(newAssign)
		for i, j := range newAssign {
			current[inst.UserIDs[i]] = j
		}

		res, err := model.EvaluateWith(&eval, inst.Net, newAssign, cfg.ModelOpts)
		if err != nil {
			return nil, err
		}
		results = append(results, EpochResult{
			Epoch:         epoch,
			Users:         len(topo.Users),
			Arrivals:      arrivals,
			Departures:    departures,
			Aggregate:     res.Aggregate,
			Jain:          stats.JainIndex(res.PerUser),
			Reassignments: reassigned,
		})
	}
	return results, nil
}

func assignFromMap(inst *Instance, current map[int]int) model.Assignment {
	assign := newUnassigned(len(inst.UserIDs))
	for i, id := range inst.UserIDs {
		if j, ok := current[id]; ok {
			assign[i] = j
		}
	}
	return assign
}

func rowOf(inst *Instance, userID int) int {
	for i, id := range inst.UserIDs {
		if id == userID {
			return i
		}
	}
	return -1
}
