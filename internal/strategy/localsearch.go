package strategy

import (
	"slices"
	"time"

	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
)

func init() {
	Register("wolt-hillclimb", newLocalSearch("wolt-hillclimb", localsearch.HillClimbing))
	Register("wolt-kopt", newLocalSearch("wolt-kopt", localsearch.KOpt))
	Register("wolt-anneal", newLocalSearch("wolt-anneal", localsearch.Annealing))
}

// lsStrategy adapts the internal/localsearch family to the registry:
// Solve searches from a fresh empty association (placement seeds it),
// Reassign searches from the previous one, editing it in place — the
// warm path that makes per-epoch re-solves sub-millisecond — and Add
// places one arrival through the evaluator's Sync fast path. All three
// forms honor Config.Budget under the anytime contract (DESIGN.md §11):
// they always return the best-so-far valid association.
type lsStrategy struct {
	name    string
	method  localsearch.Method
	cfg     Config
	opts    localsearch.Options
	search  localsearch.Searcher
	written []int // the last Reassign's Result.Written
}

func newLocalSearch(name string, method localsearch.Method) Factory {
	return func(cfg Config) Strategy {
		opts := localsearch.Options{
			Model:  cfg.ModelOpts,
			Seed:   cfg.Seed,
			Budget: cfg.Budget,
		}
		if cfg.Alpha != 0 {
			// Config.Alpha re-aims the whole search family at the
			// α-fair objective: deficit ordering, move acceptance and
			// annealing temperature all follow the utility's Score.
			opts.Model.Utility = model.AlphaFair(cfg.Alpha)
		}
		return &lsStrategy{name: name, method: method, cfg: cfg, opts: opts}
	}
}

// Name implements Strategy.
func (s *lsStrategy) Name() string { return s.name }

// lsStats builds the Stats record of one search, with its own copy of
// the trajectory (the Result's belongs to the Searcher).
func lsStats(name string, n *model.Network, res *localsearch.Result, total time.Duration) Stats {
	return Stats{
		Strategy:      name,
		Users:         n.NumUsers(),
		Extenders:     n.NumExtenders(),
		Total:         total,
		Evaluations:   res.Attaches,
		DeltaProbes:   res.Probes,
		BoundedProbes: res.Bounded,
		Commits:       res.Commits,
		Improving:     res.Improving,
		Aggregate:     res.Aggregate,
		Utility:       res.Utility,
		Trajectory:    slices.Clone(res.Trajectory),
		Stop:          res.Stop.String(),
	}
}

// Solve implements Strategy: the cold form seeds from an all-unassigned
// association (the free placement pass greedily builds one) and then
// searches. It is not meant to rival the two-phase solve on quality —
// register it for completeness and for the budget-vs-quality curve of
// the anytime experiment.
func (s *lsStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := make(model.Assignment, n.NumUsers())
	for i := range start {
		start[i] = model.Unassigned
	}
	return s.Reassign(n, start)
}

// Reassign implements Reassigner: the warm path. The previous
// association seeds the search, arrivals (Unassigned entries) are
// placed for free, and the budgeted climb repairs the rest; the search
// writes only the rows it moves back into prev. Without an Observer
// it allocates nothing once the Searcher has grown to the network.
func (s *lsStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	t0 := time.Now()
	s.written = nil
	res, err := s.search.Search(n, prev, s.method, s.opts)
	if err != nil {
		return nil, err
	}
	s.written = res.Written
	if s.cfg.Observer != nil {
		s.cfg.Observer(lsStats(s.name, n, res, time.Since(t0)))
	}
	return prev, nil
}

// Written returns the rows of prev the last Reassign wrote, with
// repeats, or none when it failed.
func (s *lsStrategy) Written() []int { return s.written }

// Add implements Online: one arrival, placed on the candidate extender
// that maximizes the aggregate. Returns the chosen extender (or
// model.Unassigned when the user has no reachable candidate, matching
// the greedy baseline's convention).
func (s *lsStrategy) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	j, err := s.search.Place(n, assign, user, s.opts)
	if err != nil {
		return model.Unassigned, err
	}
	assign[user] = j
	return j, nil
}
