package core

import (
	"fmt"
	"math"

	"github.com/plcwifi/wolt/internal/model"
)

// IncrementalResult is the outcome of a budgeted re-association.
type IncrementalResult struct {
	// Assign is the new association.
	Assign model.Assignment
	// Moves lists the already-associated users that changed extender, in
	// the order the moves were applied.
	Moves []int
	// Placed lists previously unassociated users given an extender
	// (arrivals; these do not count against the budget).
	Placed []int
	// TargetAggregate is the aggregate throughput of the unconstrained
	// WOLT association; AchievedAggregate is the budgeted result's.
	TargetAggregate   float64
	AchievedAggregate float64
	// Target carries the unconstrained WOLT solve the moves steer
	// toward, including its phase diagnostics.
	Target *Result
	// Evals counts full evaluator builds (DeltaEval attaches) and
	// DeltaProbes the O(Δ) candidate-move probes of the greedy
	// move-selection loop.
	Evals       int
	DeltaProbes int
}

// AssignIncremental moves the network toward the full WOLT association
// while re-associating at most budget existing users — the knob the
// paper's Fig 6c motivates: full recomputation may move many users, and
// every move disrupts a client's traffic.
//
// New users (prev[i] == Unassigned) are always placed and do not consume
// budget. Among the existing users whose WOLT target differs from their
// current extender, moves are applied greedily by marginal aggregate
// gain under the evaluation model, stopping at the budget or when no
// remaining move improves the aggregate. A negative budget means
// unlimited (equivalent to full recomputation restricted to
// target-directed moves).
func AssignIncremental(n *model.Network, prev model.Assignment, budget int, opts Options, evalOpts model.Options) (*IncrementalResult, error) {
	return AssignIncrementalWith(nil, n, prev, budget, opts, evalOpts)
}

// AssignIncrementalWith is AssignIncremental with an optional
// caller-provided Scratch backing both the inner unconstrained WOLT
// solve and the candidate-move delta evaluator. A nil scratch behaves
// exactly like AssignIncremental.
func AssignIncrementalWith(cs *Scratch, n *model.Network, prev model.Assignment, budget int, opts Options, evalOpts model.Options) (*IncrementalResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(prev) != n.NumUsers() {
		return nil, fmt.Errorf("core: previous assignment covers %d users, network has %d",
			len(prev), n.NumUsers())
	}

	if cs == nil {
		cs = &Scratch{}
	}
	target, err := AssignWith(cs, n, opts)
	if err != nil {
		return nil, err
	}
	res := &IncrementalResult{Assign: prev.Clone(), Target: target}

	// Arrivals go straight to their target (free).
	for i, j := range prev {
		if j == model.Unassigned {
			res.Assign[i] = target.Assign[i]
			res.Placed = append(res.Placed, i)
		}
	}

	// Candidate moves: existing users whose target differs.
	var candidates []int
	for i, j := range prev {
		if j != model.Unassigned && target.Assign[i] != j {
			candidates = append(candidates, i)
		}
	}

	// One delta-evaluator attach validates and builds the accumulators
	// for the post-arrival state; every candidate move is then an O(Δ)
	// probe and every applied move an O(Δ) commit, instead of a full
	// model evaluation each.
	d := &cs.delta
	evals0, probes0 := d.Evals, d.Probes
	if err := d.Attach(n, res.Assign, evalOpts); err != nil {
		return nil, err
	}
	// Moves are ranked by the evaluation options' lexicographic Score;
	// under the zero sum-rate utility both components are the aggregate
	// and the selection reduces bit-for-bit to the old aggregate-greedy
	// loop.
	currentScore := d.Score()
	remaining := budget
	for remaining != 0 && len(candidates) > 0 {
		bestIdx, bestScore := -1, currentScore
		for idx, user := range candidates {
			sc := d.ProbeMoveScore(user, res.Assign[user], target.Assign[user])
			if sc.BetterEps(bestScore, 1e-12) {
				bestIdx, bestScore = idx, sc
			}
		}
		if bestIdx < 0 {
			break // no remaining single move helps
		}
		user := candidates[bestIdx]
		d.Commit(user, res.Assign[user], target.Assign[user])
		res.Assign[user] = target.Assign[user]
		res.Moves = append(res.Moves, user)
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		currentScore = bestScore
		if remaining > 0 {
			remaining--
		}
	}

	res.Evals = d.Evals - evals0
	res.DeltaProbes = d.Probes - probes0
	res.AchievedAggregate = currentScore.Tie
	// The network was validated above and target.Assign was produced by
	// AssignWith against this same network, so the full evaluation can
	// skip re-validating the pair (model.Options.SkipValidate contract).
	targetOpts := evalOpts
	targetOpts.SkipValidate = true
	res.TargetAggregate = model.Aggregate(n, target.Assign, targetOpts)
	if math.IsNaN(res.TargetAggregate) {
		return nil, fmt.Errorf("core: target aggregate is NaN")
	}
	return res, nil
}
