package experiments

import (
	"fmt"
	"math"
	"strconv"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

// frontierAlphas is the α sweep of the fairness frontier, from pure
// throughput (α=0, plain wolt) through proportional fairness (α=1) to
// the max-min limit (α=∞, solved via its smooth Phase II surrogate).
var frontierAlphas = []float64{0, 0.5, 1, 2, 4, math.Inf(1)}

// FrontierRun is one α cell of the frontier: the two-phase solve under
// U_α, re-priced by the full evaluator. All fields are deterministic
// for any worker count (wall-clock latencies are recorded by
// `scripts/bench.sh frontier`, not here).
type FrontierRun struct {
	// Alpha is the utility exponent (math.Inf(1) = max-min).
	Alpha float64
	// Utility is the achieved objective value under U_α itself.
	Utility float64
	// Aggregate is the sum-rate (Mbps) the α-solve pays for its
	// fairness; Jain and MinUser price what it buys.
	Aggregate float64
	Jain      float64
	// MinUser is the worst user's throughput in Mbps.
	MinUser float64
	// Moved counts users assigned differently than the α=0 reference.
	Moved int
}

// FrontierResult is the throughput-vs-fairness frontier on one
// enterprise instance: one two-phase solve per utility member, each
// row priced by aggregate, Jain index, and worst-user throughput.
type FrontierResult struct {
	Users, Extenders int
	Runs             []FrontierRun
}

// Frontier sweeps the α-fair utility family over one enterprise
// instance (Options.Users × Options.Extenders): each α cell runs the
// full two-phase wolt-alpha solve and is priced by the sum-rate
// evaluator, fanned over Options.Workers goroutines. The α=0 cell is
// cross-checked bit-for-bit — assignment and aggregate — against a
// plain wolt solve, pinning the tentpole's compatibility contract
// inside the experiment itself. Results are bit-identical for any
// worker count (DESIGN.md §7).
func Frontier(opts Options) (*FrontierResult, error) {
	opts = opts.withDefaults(1)
	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		return nil, err
	}
	inst := netsim.Build(topo, scen.Radio)

	res := &FrontierResult{
		Users:     inst.Net.NumUsers(),
		Extenders: inst.Net.NumExtenders(),
	}

	// The α=0 compatibility reference: plain wolt through the original
	// sum-rate path.
	wolt, err := strategy.New("wolt", strategy.Config{ModelOpts: Redistribute, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	refAssign, err := wolt.Solve(inst.Net)
	if err != nil {
		return nil, err
	}
	refAggregate := model.Aggregate(inst.Net, refAssign, Redistribute)

	runs, err := parallel.Map(opts.context(), len(frontierAlphas), opts.Workers, func(c int) (FrontierRun, error) {
		alpha := frontierAlphas[c]
		st, err := strategy.New("wolt-alpha", strategy.Config{
			ModelOpts: Redistribute,
			Workers:   1, // per-cell solves stay sequential; the sweep is the fan-out
			Alpha:     alpha,
		})
		if err != nil {
			return FrontierRun{}, err
		}
		assign, err := st.Solve(inst.Net)
		if err != nil {
			return FrontierRun{}, fmt.Errorf("wolt-alpha α=%g: %w", alpha, err)
		}

		evalOpts := Redistribute
		evalOpts.Utility = model.AlphaFair(alpha)
		ev, err := model.Evaluate(inst.Net, assign, evalOpts)
		if err != nil {
			return FrontierRun{}, err
		}
		if alpha == 0 {
			// The tentpole's acceptance criterion, enforced in-line: the
			// α=0 member must reproduce plain wolt bit-for-bit.
			if moved := assign.Diff(refAssign); moved != 0 {
				return FrontierRun{}, fmt.Errorf(
					"experiments: α=0 frontier solve moved %d users off the wolt reference", moved)
			}
			if ev.Aggregate != refAggregate {
				return FrontierRun{}, fmt.Errorf(
					"experiments: α=0 aggregate %v != wolt reference %v", ev.Aggregate, refAggregate)
			}
		}
		return FrontierRun{
			Alpha:     alpha,
			Utility:   ev.Utility,
			Aggregate: ev.Aggregate,
			Jain:      stats.JainIndex(ev.PerUser),
			MinUser:   stats.Min(ev.PerUser),
			Moved:     assign.Diff(refAssign),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Runs = runs
	return res, nil
}

// Tables implements Tabler.
func (r *FrontierResult) Tables() []Table {
	t := Table{
		Caption: fmt.Sprintf(
			"α-fair frontier — throughput vs fairness (%d users × %d extenders; α=0 is plain wolt)",
			r.Users, r.Extenders),
		Header: []string{"utility", "aggregate Mbps", "Jain", "min-user Mbps", "utility value", "moved vs α=0"},
	}
	var ref float64
	for _, run := range r.Runs {
		if run.Alpha == 0 {
			ref = run.Aggregate
		}
	}
	for _, run := range r.Runs {
		agg := f1(run.Aggregate)
		if ref > 0 {
			agg += " (" + f2(stats.Ratio(run.Aggregate, ref)) + "×)"
		}
		t.Rows = append(t.Rows, []string{
			model.AlphaFair(run.Alpha).String(), agg, f2(run.Jain),
			f1(run.MinUser), f2(run.Utility), strconv.Itoa(run.Moved),
		})
	}
	return []Table{t}
}
