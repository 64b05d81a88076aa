// Package netsim is the flow-level network simulator used for the paper's
// large-scale evaluation (§V-E): it combines a physical topology, the
// WiFi radio model and the PLC capacity model into a model.Network,
// applies an association policy, and evaluates end-to-end throughputs
// under the PLC+WiFi sharing model.
//
// A Policy is a value, not a type: a strategy-registry name and its
// strategy.Config under a display name. The paper's four policies are
// WOLTPolicy, GreedyPolicy, SelfishPolicy and RSSIPolicy; any other
// registry strategy (the anytime local-search family, random) is priced
// by naming it.
//
// Two experiment drivers are provided: RunStatic (independent trials with
// a fixed user population — Fig 6a and the fairness table) and RunDynamic
// (Poisson arrival/departure churn evaluated at epoch boundaries —
// Fig 6b/6c).
package netsim

import (
	"context"
	"fmt"
	"sync"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

// Instance is a concrete network: topology plus derived rate matrices.
type Instance struct {
	Topo *topology.Topology
	// Net is the association-problem input (r_ij, c_j) derived from the
	// topology through the radio model.
	Net *model.Network
	// RSSI[i][j] is the received signal strength used by RSSI-based
	// association.
	RSSI [][]float64
	// UserIDs maps network row index to topology user ID.
	UserIDs []int
}

// Build derives the model inputs from a topology using the radio model.
// Shadowing offsets are keyed by stable user and extender IDs, so a
// link's quality does not change when the topology is rebuilt after churn.
func Build(topo *topology.Topology, rm radio.Model) *Instance {
	distances := topo.Distances()
	inst := &Instance{
		Topo: topo,
		Net: &model.Network{
			WiFiRates: make([][]float64, len(distances)),
			PLCCaps:   topo.PLCCapacities(),
		},
		RSSI:    make([][]float64, len(distances)),
		UserIDs: make([]int, len(topo.Users)),
	}
	for i, row := range distances {
		uid := topo.Users[i].ID
		inst.Net.WiFiRates[i] = make([]float64, len(row))
		inst.RSSI[i] = make([]float64, len(row))
		for j, d := range row {
			eid := topo.Extenders[j].ID
			inst.Net.WiFiRates[i][j] = rm.LinkRate(d, uid, eid)
			inst.RSSI[i][j] = rm.LinkRSSI(d, uid, eid)
		}
	}
	for i, u := range topo.Users {
		inst.UserIDs[i] = u.ID
	}
	return inst
}

// Policy is an association policy driven by the simulator: a strategy
// from the internal/strategy registry under a display name.
//   - An arrival goes through the strategy's Online.Add when it has that
//     form. Otherwise the user joins the strongest-RSSI extender.
//   - At an epoch boundary the strategy's Reassign runs when it has that
//     form. Otherwise the association stays as it is.
//   - An empty Strategy means no controller: the paper's RSSI baseline.
//
// Every trial, and every RunDynamic trace, builds its own strategy
// instance from Config. A randomized strategy's draws thus depend only on
// Config.Seed and the trial, whatever the worker count.
type Policy struct {
	// Name labels the policy's result rows.
	Name string
	// Strategy is the registry name (strategy.Names()); empty means
	// strongest-signal association with no controller.
	Strategy string
	// Config parameterizes the strategy instance; Config.Budget is how
	// the anytime family gets its per-epoch probe budget here.
	Config strategy.Config
}

// WOLTPolicy is the paper's system: arrivals connect to the
// strongest-RSSI extender to reach the central controller, which
// recomputes the full two-phase assignment at epoch ends.
func WOLTPolicy() Policy { return Policy{Name: "WOLT", Strategy: "wolt"} }

// GreedyPolicy is the paper's online baseline: each arrival picks the
// extender maximizing the aggregate throughput; nobody ever moves.
func GreedyPolicy(opts model.Options) Policy {
	return Policy{Name: "Greedy", Strategy: "greedy", Config: strategy.Config{ModelOpts: opts}}
}

// SelfishPolicy is the online greedy of the paper's §III-B case study:
// each arriving user picks the extender maximizing its own end-to-end
// throughput; nobody ever moves.
func SelfishPolicy(opts model.Options) Policy {
	return Policy{Name: "Selfish", Strategy: "selfish", Config: strategy.Config{ModelOpts: opts}}
}

// RSSIPolicy is the commodity default: strongest signal wins, forever.
func RSSIPolicy() Policy { return Policy{Name: "RSSI"} }

// Assign runs the policy over a static instance with the testbed
// procedure: users arrive in index order, then one epoch boundary lets
// the controller issue its directives.
func (p Policy) Assign(inst *Instance) (model.Assignment, error) {
	st, err := p.newStrategy()
	if err != nil {
		return nil, err
	}
	assign := newUnassigned(len(inst.UserIDs))
	for i := range assign {
		if err := arrive(st, inst, assign, i); err != nil {
			return nil, fmt.Errorf("netsim: %s arrival: %w", p.Name, err)
		}
	}
	assign, err = reassign(st, inst, assign)
	if err != nil {
		return nil, fmt.Errorf("netsim: %s epoch: %w", p.Name, err)
	}
	return assign, nil
}

// newStrategy builds the policy's strategy instance; nil for the
// controller-less RSSI baseline.
func (p Policy) newStrategy() (strategy.Strategy, error) {
	if p.Strategy == "" {
		return nil, nil
	}
	return strategy.New(p.Strategy, p.Config)
}

// arrive places one arriving user (a row index into inst.Net).
func arrive(st strategy.Strategy, inst *Instance, assign model.Assignment, user int) error {
	if on, ok := st.(strategy.Online); ok {
		_, err := on.Add(inst.Net, assign, user)
		return err
	}
	if user < 0 || user >= len(inst.RSSI) {
		return fmt.Errorf("netsim: user %d out of range", user)
	}
	assign[user] = strategy.Strongest(inst.Net.WiFiRates[user], inst.RSSI[user])
	if assign[user] == model.Unassigned {
		return fmt.Errorf("netsim: user %d reaches no extender", user)
	}
	return nil
}

// reassign runs an epoch boundary: the strategy's Reassign when it has one,
// otherwise the association is left unchanged.
func reassign(st strategy.Strategy, inst *Instance, assign model.Assignment) (model.Assignment, error) {
	if re, ok := st.(strategy.Reassigner); ok {
		return re.Reassign(inst.Net, assign)
	}
	return assign, nil
}

// StaticConfig parameterizes independent-trial experiments.
type StaticConfig struct {
	Topology topology.Config
	// Radio is the WiFi model; the zero value selects radio.DefaultModel.
	Radio *radio.Model
	// Trials is the number of independent topologies; trial t's topology
	// seed is seed.Derive(Topology.Seed, seed.NetsimTrial, t).
	Trials int
	// ModelOpts selects the evaluation model (redistribution on for all
	// paper experiments).
	ModelOpts model.Options
	// Workers bounds the goroutines running trials concurrently; <= 0
	// uses all available cores. Results are identical for every worker
	// count: each trial's topology seed depends only on its index, and
	// trial t always lands at Trials[t].
	Workers int
	// Ctx cancels a running experiment between trials; nil means
	// context.Background(). On cancellation RunStatic returns promptly
	// with the context's error.
	Ctx context.Context
}

func (c StaticConfig) radioModel() radio.Model {
	if c.Radio != nil {
		return *c.Radio
	}
	return radio.DefaultModel()
}

// TrialResult is one policy's outcome on one topology.
type TrialResult struct {
	Aggregate float64
	PerUser   []float64
	Jain      float64
	// SaturationFraction is the fraction of active extenders (nonzero
	// WiFi demand) whose delivered throughput is PLC-limited — the
	// backhaul share carried strictly less than the WiFi side demanded.
	// Zero when no extender is active.
	SaturationFraction float64
}

// StaticResult aggregates a policy's outcomes across trials.
type StaticResult struct {
	Policy string
	Trials []TrialResult
}

// Aggregates returns the per-trial aggregate throughputs.
func (r StaticResult) Aggregates() []float64 {
	out := make([]float64, len(r.Trials))
	for i, tr := range r.Trials {
		out[i] = tr.Aggregate
	}
	return out
}

// MeanAggregate returns the mean aggregate throughput across trials.
func (r StaticResult) MeanAggregate() float64 {
	return stats.Mean(r.Aggregates())
}

// MeanJain returns the mean Jain fairness index across trials.
func (r StaticResult) MeanJain() float64 {
	xs := make([]float64, len(r.Trials))
	for i, tr := range r.Trials {
		xs[i] = tr.Jain
	}
	return stats.Mean(xs)
}

// RunStatic evaluates each policy on the same sequence of random
// topologies. All users are present from the start; each policy assigns
// them with Policy.Assign (arrivals in index order, then one epoch —
// the paper's testbed procedure, where users join and the controller
// then issues its directives).
//
// Trials are independent and run on cfg.Workers goroutines; the result
// is bit-identical for every worker count because trial t's topology
// seed is seed.Derive(Topology.Seed, seed.NetsimTrial, t) regardless of
// which worker runs it, every trial builds its own strategy instances,
// and its outcome always lands at Trials[t].
func RunStatic(cfg StaticConfig, policies []Policy) ([]StaticResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("netsim: non-positive trial count %d", cfg.Trials)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("netsim: no policies")
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rm := cfg.radioModel()
	results := make([]StaticResult, len(policies))
	for p, policy := range policies {
		results[p] = StaticResult{Policy: policy.Name, Trials: make([]TrialResult, cfg.Trials)}
	}
	err := parallel.ForEach(ctx, cfg.Trials, parallel.Workers(cfg.Workers), func(trial int) error {
		topoCfg := cfg.Topology
		topoCfg.Seed = seed.Derive(cfg.Topology.Seed, seed.NetsimTrial, int64(trial))
		eval := evalPool.Get().(*model.EvalScratch)
		defer evalPool.Put(eval)
		trs, err := runTrial(topoCfg, rm, policies, cfg.ModelOpts, eval)
		if err != nil {
			return err
		}
		for p := range policies {
			results[p].Trials[trial] = trs[p]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunTrial generates the topology for topoCfg and runs every policy on
// it with Policy.Assign, returning one TrialResult per policy. It is
// the unit of work RunStatic and the sweep engine fan out over.
func RunTrial(topoCfg topology.Config, rm radio.Model, policies []Policy, opts model.Options) ([]TrialResult, error) {
	return runTrial(topoCfg, rm, policies, opts, &model.EvalScratch{})
}

// evalPool lends trials the evaluation scratch. Scratch contents never
// influence results (only capacity is retained between uses), so pooled
// reuse across goroutines preserves determinism.
var evalPool = sync.Pool{New: func() any { return new(model.EvalScratch) }}

func runTrial(topoCfg topology.Config, rm radio.Model, policies []Policy, opts model.Options, eval *model.EvalScratch) ([]TrialResult, error) {
	topo, err := topology.Generate(topoCfg)
	if err != nil {
		return nil, err
	}
	inst := Build(topo, rm)
	out := make([]TrialResult, len(policies))
	for p, policy := range policies {
		assign, err := policy.Assign(inst)
		if err != nil {
			return nil, err
		}
		res, err := model.EvaluateWith(eval, inst.Net, assign, opts)
		if err != nil {
			return nil, fmt.Errorf("netsim: %s evaluate: %w", policy.Name, err)
		}
		out[p] = TrialResult{
			Aggregate: res.Aggregate,
			// res is scratch-owned and overwritten by the next policy's
			// evaluation; the per-user vector must be copied out.
			PerUser:            append([]float64(nil), res.PerUser...),
			Jain:               stats.JainIndex(res.PerUser),
			SaturationFraction: saturationFraction(res),
		}
	}
	return out, nil
}

// saturationFraction reports the fraction of active extenders whose
// delivered throughput fell short of WiFi demand, i.e. the PLC backhaul
// was the end-to-end bottleneck.
func saturationFraction(res *model.Result) float64 {
	saturated, active := 0, 0
	for j := range res.PerExtender {
		if res.WiFiDemand[j] <= 0 {
			continue
		}
		active++
		if res.PerExtender[j] < res.WiFiDemand[j]-1e-9 {
			saturated++
		}
	}
	if active == 0 {
		return 0
	}
	return float64(saturated) / float64(active)
}

func newUnassigned(n int) model.Assignment {
	assign := make(model.Assignment, n)
	for i := range assign {
		assign[i] = model.Unassigned
	}
	return assign
}
