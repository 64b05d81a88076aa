package strategy

import (
	"time"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/model"
)

func init() {
	Register("wolt", newWOLT("wolt", core.Phase2ProjectedGradient, model.Utility{}))
	Register("wolt-coordinate", newWOLT("wolt-coordinate", core.Phase2Coordinate, model.Utility{}))
	// The utility family: wolt-pf is the α=1 (proportional-fair) member,
	// wolt-alpha the parameterized one (Config.Alpha; 0 reproduces wolt
	// bit-for-bit, math.Inf(1) is max-min via its smooth Phase II
	// surrogate). Both run the full two-phase machinery — Phase I
	// coverage seeding, then the α-fair projected-gradient Phase II —
	// and emit the same per-solve Stats as every other variant.
	Register("wolt-pf", newWOLT("wolt-pf", 0, model.ProportionalFairness()))
	Register("wolt-alpha", func(cfg Config) Strategy {
		return newWOLT("wolt-alpha", 0, model.AlphaFair(cfg.Alpha))(cfg)
	})
	Register("wolt-incremental", func(cfg Config) Strategy {
		budget := cfg.Budget.Moves
		switch {
		case budget == 0:
			budget = -1 // core's "unlimited"
		case budget < 0:
			budget = 0 // placement only
		}
		return &incrementalStrategy{cfg: cfg, opts: coreOptions(cfg, 0), budget: budget}
	})
}

// coreOptions derives the two-phase solver options of a WOLT variant:
// its Phase II engine (zero means projected gradient) and Config.Workers
// as the NLP solver's worker bound.
func coreOptions(cfg Config, solver core.Phase2Solver) core.Options {
	opts := core.Options{Solver: solver}
	opts.NLP.Workers = cfg.Workers
	return opts
}

// woltStats builds the Stats record of one two-phase solve.
func woltStats(name string, n *model.Network, res *core.Result, total time.Duration, evals int) Stats {
	st := Stats{
		Strategy:               name,
		Users:                  n.NumUsers(),
		Extenders:              n.NumExtenders(),
		Phase1:                 res.Phase1Time,
		Phase2:                 res.Phase2Time,
		Total:                  total,
		Phase1Users:            len(res.PhaseIUsers),
		HungarianAugmentations: res.Phase1Augmentations,
		Evaluations:            evals,
	}
	if res.Phase2 != nil {
		st.Phase2Iterations = res.Phase2.Iterations
		st.PolishSweeps = res.Phase2.PolishSweeps
	}
	return st
}

// woltStrategy runs the full two-phase algorithm (projected-gradient or
// coordinate Phase II) under a fixed utility member; epochs recompute
// from scratch.
type woltStrategy struct {
	name    string
	cfg     Config
	opts    core.Options
	scratch core.Scratch
	eval    model.EvalScratch
	keys    keyOrder
}

// newWOLT builds the factory of a two-phase variant. A zero solver
// means projected gradient; the zero utility is the paper's sum-rate.
func newWOLT(name string, solver core.Phase2Solver, utility model.Utility) Factory {
	return func(cfg Config) Strategy {
		opts := coreOptions(cfg, solver)
		opts.Utility = utility
		return &woltStrategy{name: name, cfg: cfg, opts: opts}
	}
}

// Name implements Strategy.
func (w *woltStrategy) Name() string { return w.name }

// Solve implements Strategy.
func (w *woltStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	res, err := core.AssignWith(&w.scratch, n, w.opts)
	if err != nil {
		return nil, err
	}
	st := woltStats(w.name, n, res, time.Since(start), 0)
	if w.cfg.Observer != nil {
		// One full evaluation per observed solve prices the result in
		// the caller's model (and its utility member) — the common
		// stats path every variant, including the fairness members,
		// now reports through.
		evalOpts := w.cfg.ModelOpts
		evalOpts.Utility = w.opts.Utility
		if ev, everr := model.EvaluateWith(&w.eval, n, res.Assign, evalOpts); everr == nil {
			st.Aggregate = ev.Aggregate
			st.Utility = ev.Utility
		}
	}
	w.cfg.emit(st)
	return res.Assign, nil
}

// Reassign implements Reassigner: WOLT's controller recomputes the full
// association at every epoch, over the users in key order, and copies
// it into prev, whose contents it ignores.
func (w *woltStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	gn, _ := w.keys.gather(n, nil)
	next, err := w.Solve(gn)
	if err != nil {
		return nil, err
	}
	return w.keys.adopt(prev, next)
}

// incrementalStrategy is the budgeted re-association extension: Reassign
// steers the previous association toward the full WOLT target while
// moving at most Config.Budget.Moves existing users; Solve (no previous
// state) is a plain two-phase solve.
type incrementalStrategy struct {
	cfg     Config
	opts    core.Options
	budget  int
	scratch core.Scratch
	keys    keyOrder
}

// Name implements Strategy.
func (s *incrementalStrategy) Name() string { return "wolt-incremental" }

// Solve implements Strategy.
func (s *incrementalStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	res, err := core.AssignWith(&s.scratch, n, s.opts)
	if err != nil {
		return nil, err
	}
	s.cfg.emit(woltStats("wolt-incremental", n, res, time.Since(start), 0))
	return res.Assign, nil
}

// Reassign implements Reassigner.
func (s *incrementalStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	start := time.Now()
	gn, gprev := s.keys.gather(n, prev)
	res, err := core.AssignIncrementalWith(&s.scratch, gn, gprev, s.budget, s.opts, s.cfg.ModelOpts)
	if err != nil {
		return nil, err
	}
	st := woltStats("wolt-incremental", n, res.Target, time.Since(start), res.Evals)
	st.DeltaProbes = res.DeltaProbes
	s.cfg.emit(st)
	return s.keys.adopt(prev, res.Assign)
}
