// Package localsearch implements the delta-native anytime local-search
// family: best-swap hill climbing, k-opt eject/reinsert chains, and
// simulated annealing over user→extender associations, all built on
// model.DeltaEval's O(Δ) ProbeMove/Commit primitives (DESIGN.md §10).
//
// The package exists for the warm path. A full WOLT solve (Hungarian
// Phase I + NLP Phase II) costs ~1.25s at enterprise scale; a single
// delta probe costs ~570ns and zero allocations. When the network
// changes by one join, leave, or rate update, the previous assignment
// is already near-optimal, so a few thousand probes of local search
// recover almost all of the objective in well under a millisecond —
// the regime BENCH_anytime.jsonl measures.
//
// # Anytime contract
//
// Every search honors the same contract (DESIGN.md §11):
//
//   - It is interruptible at probe granularity: an exhausted probe or
//     move budget stops the search at the next probe or move.
//   - It always leaves the best valid assignment found so far in the
//     caller's start assignment, edited in place — never an error for
//     running out of budget, never a half-applied chain (tentative
//     k-opt commits are rolled back before returning).
//   - The returned aggregate is the committed evaluator state, which is
//     bit-identical to a fresh model.EvaluateWith of the end state (the
//     differential tests assert ==, not ≈).
//
// Determinism: the result is a pure function of (network, start,
// Options), since every budget counts work, not wall clock.
package localsearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// improveEps matches the strict-improvement threshold of
// core.AssignIncrementalWith: a move must beat the incumbent aggregate
// by more than this to count, so floating-point noise can never drive
// an endless improve/undo cycle.
const improveEps = 1e-12

// DefaultNeighborhood is the candidate-cache size M: each user may move
// only among its 8 best-rate extenders.
const DefaultNeighborhood = 8

// kOptDepth is the k-opt chain length: a chain ejects and reinserts at
// most this many users.
const kOptDepth = 3

// The annealer's schedule: it freezes (StopFrozen) once the temperature
// falls below annealFloor times the starting one, and cools by
// annealCooling per step when the probe budget is unlimited.
const (
	annealFloor   = 1e-3
	annealCooling = 0.9995
)

// Method selects one member of the search family.
type Method int

const (
	// HillClimbing commits the single best improving move per pass
	// until no candidate move improves: the cheapest and most
	// predictable member, and the warm repair (wolt-hillclimb).
	HillClimbing Method = iota
	// KOpt first climbs to a single-move optimum, then escapes it with
	// eject/reinsert chains up to kOptDepth moves deep, keeping the
	// best improving prefix of each chain and rolling back the rest.
	KOpt
	// Annealing walks random candidate moves under a Metropolis
	// acceptance rule with a geometrically cooled temperature, seeded
	// from the seed.StrategyRand stream.
	Annealing
)

// String returns the registry-style name of the method.
func (m Method) String() string {
	switch m {
	case HillClimbing:
		return "hillclimb"
	case KOpt:
		return "kopt"
	case Annealing:
		return "anneal"
	}
	return "unknown"
}

// StopReason records why a search returned.
type StopReason int

const (
	// StopOptimum: no candidate move improves (hill climb / k-opt
	// exhausted their neighborhoods; the natural end state).
	StopOptimum StopReason = iota
	// StopProbes: the probe budget ran out.
	StopProbes
	// StopMoves: the move budget ran out.
	StopMoves
	// StopFrozen: annealing cooled below its temperature floor.
	StopFrozen
)

// String names the stop reason for stats and logs.
func (r StopReason) String() string {
	switch r {
	case StopOptimum:
		return "optimum"
	case StopProbes:
		return "probes"
	case StopMoves:
		return "moves"
	case StopFrozen:
		return "frozen"
	}
	return "unknown"
}

// Budget bounds a search. Zero fields mean unlimited, and so does a
// negative Probes; a negative Moves means placement only. An all-zero
// Budget runs to the method's natural end (local optimum or temperature
// floor). This is the one budget vocabulary shared with strategy.Config.
type Budget struct {
	// Probes caps ProbeMove evaluations, the search's unit of work and
	// the deterministic way to bound it.
	Probes int
	// Moves caps committed re-associations of already-placed users.
	// Placing a previously unassigned user is free, mirroring the
	// arrivals-are-free rule of core.AssignIncrementalWith. A negative
	// value forbids re-associations entirely (placement only).
	Moves int
}

// Options configures a search.
type Options struct {
	// Model selects the throughput model the committed states are
	// evaluated under (must match what the caller compares against).
	Model model.Options
	// Seed roots the annealer's randomness via
	// seed.Rand(Seed, seed.StrategyRand, 0), drawn afresh per search.
	Seed int64
	// Budget bounds the search; see the anytime contract above.
	Budget Budget
}

// Result reports a finished search. The Result Search returns, and its
// Trajectory, belong to the Searcher and stay valid until its next
// Search; copy what must outlive that.
type Result struct {
	// Assign is the best assignment found: the caller's start, edited
	// in place (always valid).
	Assign model.Assignment
	// Aggregate is Assign's total throughput, bit-identical to a fresh
	// model.EvaluateWith under the same model options.
	Aggregate float64
	// Utility is Assign's value under Options.Model.Utility — the
	// quantity the search actually maximized (equal to Aggregate for
	// the zero sum-rate utility), bit-identical to a fresh
	// model.EvaluateWith's Result.Utility.
	Utility float64
	// Start is the utility of the seed assignment after free placement
	// of unassigned users, the baseline the search improved (the
	// aggregate under the zero utility).
	Start float64
	// Placed counts previously unassigned users the seeding pass
	// placed (they do not consume the move budget).
	Placed int
	// Probes counts delta probes actually evaluated, including the
	// seeding pass and tentative k-opt chains.
	Probes int
	// Bounded counts the probes among them that the evaluator's upper
	// bound rejected without an exact re-sum
	// (model.DeltaEval.ProbeMoveBeats).
	Bounded int
	// Attaches counts full evaluator rebuilds: 1 when the search had to
	// attach to (network, start), 0 when Sync reused (or replayed row
	// edits into) the committed state of the previous search.
	Attaches int
	// Commits counts Commit operations applied, including k-opt
	// rollbacks (it measures evaluator work, not net moves).
	Commits int
	// Improving counts strict improvements of the best-so-far
	// score; Improving/Commits is the improving-move ratio
	// surfaced in strategy.Stats.
	Improving int
	// Written lists, with repeats, the rows of Assign the search wrote.
	Written []int
	// Trajectory is the best-so-far utility after seeding and after
	// each improvement (the aggregate under the zero sum-rate
	// utility): the anytime quality curve.
	Trajectory []float64
	// Stop records why the search returned.
	Stop StopReason
}

// run carries one search's interruption state: remaining budgets and
// the first reason anything tripped.
type run struct {
	probesLeft int // -1 = unlimited
	movesLeft  int // -1 = unlimited
	stop       StopReason
	halted     bool
}

// start resets r for a search under budget b.
func (r *run) start(b Budget) {
	*r = run{probesLeft: -1, movesLeft: -1}
	if b.Probes > 0 {
		r.probesLeft = b.Probes
	}
	if b.Moves > 0 {
		r.movesLeft = b.Moves
	} else if b.Moves < 0 {
		r.movesLeft = 0 // placement only
	}
}

// takeProbe reserves one probe evaluation; false means the search must
// stop (budget exhausted).
func (r *run) takeProbe() bool {
	if r.halted {
		return false
	}
	if r.probesLeft == 0 {
		r.haltWith(StopProbes)
		return false
	}
	if r.probesLeft > 0 {
		r.probesLeft--
	}
	return true
}

// takeMove reserves one budgeted re-association.
func (r *run) takeMove() bool {
	if r.halted {
		return false
	}
	if r.movesLeft == 0 {
		r.haltWith(StopMoves)
		return false
	}
	if r.movesLeft > 0 {
		r.movesLeft--
	}
	return true
}

// takeProbes reserves k probes at once, exactly as k takeProbe calls
// would: it returns how many it reserved, min(k, probes left), and
// halts with StopProbes when k exceeds what was left.
func (r *run) takeProbes(k int) int {
	if r.probesLeft >= 0 {
		if k > r.probesLeft {
			k = r.probesLeft
			r.haltWith(StopProbes)
		}
		r.probesLeft -= k
	}
	return k
}

func (r *run) haltWith(reason StopReason) {
	if !r.halted {
		r.halted = true
		r.stop = reason
	}
}

// Searcher owns the reusable state of the family: the delta evaluator,
// the neighborhood cache, the hill climb's visit order, and the
// best-so-far buffers. Like
// core.Scratch, a Searcher is not safe for concurrent use but amortizes
// every allocation across repeated searches — the warm re-solve loop
// allocates nothing that scales with users after the first call on a
// given network size.
type Searcher struct {
	delta model.DeltaEval
	cands Candidates
	// out is the running search's start assignment: every commit writes
	// its row back, so the caller's slice tracks the evaluator.
	out model.Assignment

	// best is the annealer's best-so-far assignment; the other methods
	// end on their best state, which their commits left in out.
	best      model.Assignment
	bestScore model.Score
	annealing bool
	traj      []float64
	// run and res are the current search's interruption state and
	// result, reused so a search allocates neither.
	run run
	res Result

	placed, commits, improving int

	// k-opt chain scratch: the tentative move sequence and the set of
	// users already ejected in the current chain.
	chainUser []int
	chainFrom []int
	chainTo   []int
	moved     []bool
	movedList []int

	// anneal scratch: users that have at least one candidate, so the
	// random draw can never spin on an unreachable user.
	movable []int

	// order is k-opt's seed order and arrivals place's users, both in
	// key order; written collects Result.Written.
	order, arrivals, written []int

	// hill-climb visit order, kept across searches (rank.go).
	rank deficitRank
	// reach counts each user's reachable extenders, current with the
	// network from begin on: it prices a dominated pass.
	reach reachCount

	// The running search's network and utility. lagging means the
	// visit order has not caught up with them yet (catchUp).
	net     *model.Network
	util    model.Utility
	lagging bool
}

// Search runs one method of the family from the start assignment and
// leaves the best state found in start, edited in place: only the rows
// a placement, commit or rollback touched are written, and Annealing
// copies its best state back once at the end. Result.Assign is start.
// The start may contain Unassigned entries (arrivals); they are placed
// greedily first, free of the move budget. The error is non-nil only
// for an invalid input (start fails validation against n), and then
// start is untouched — budget exhaustion is a normal return per the
// anytime contract. The Result is the Searcher's own
// and is overwritten by the next Search.
func (s *Searcher) Search(n *model.Network, start model.Assignment, method Method, opts Options) (*Result, error) {
	r := &s.run
	r.start(opts.Budget)
	probesBefore, boundedBefore, evalsBefore := s.delta.Probes, s.delta.Bounded, s.delta.Evals
	if err := s.begin(n, start, method, opts, r); err != nil {
		return nil, err
	}
	if !r.halted {
		switch method {
		case KOpt:
			s.kopt(n, opts, r)
		case Annealing:
			s.anneal(n, opts, r)
		default:
			s.hillClimb(r)
			if !r.halted {
				r.stop = StopOptimum
			}
		}
	}
	res := s.finish(r)
	s.out = nil
	res.Probes = s.delta.Probes - probesBefore
	res.Bounded = s.delta.Bounded - boundedBefore
	res.Attaches = s.delta.Evals - evalsBefore
	return res, nil
}

// Place assigns a single unassigned user to the candidate extender
// that maximizes the aggregate, committing the choice into the
// searcher's evaluator — the online-arrival form behind the strategy
// layer's Add. It returns the chosen extender, or model.Unassigned
// when the user has no reachable candidate. Repeated Places against
// the same evolving network and assignment catch the evaluator up with
// model.DeltaEval.Sync (the arrival's row insert is one O(cell)
// replay), so a stream of arrivals costs O(M) probes each, not
// O(users) rebuilds.
func (s *Searcher) Place(n *model.Network, assign model.Assignment, user int, opts Options) (int, error) {
	if err := s.delta.Sync(n, assign, opts.Model); err != nil {
		return model.Unassigned, err
	}
	s.cands.Ensure(n, DefaultNeighborhood)
	if got := s.delta.Assigned(user); got != model.Unassigned {
		return model.Unassigned, fmt.Errorf("localsearch: Place(user %d): already assigned to %d", user, got)
	}
	bestTo := -1
	bestSc := model.Score{Primary: math.Inf(-1), Tie: math.Inf(-1)}
	for _, to := range s.cands.For(user) {
		if sc, ok := s.delta.ProbeMoveBeats(user, model.Unassigned, to, bestSc, 0); ok {
			bestTo, bestSc = to, sc
		}
	}
	if bestTo < 0 {
		return model.Unassigned, nil
	}
	s.delta.Commit(user, model.Unassigned, bestTo)
	s.rank.touchAt(n, user)
	return bestTo, nil
}

// begin syncs the evaluator, the reach counts and the candidate cache
// to (n, start), places unassigned users, and records the
// post-placement state as the initial best (copying it only for
// Annealing, the one method that can walk away from its best). The
// visit order catches up here only when placement or a method other
// than hill climbing needs it; a hill climb leaves it to its first pass
// that probes, so a pass priced whole (chargeDominated) never pays for
// it. The candidate cache does not wait: Place ensures it too, and a
// cache left behind here would make the next join replay the edits
// this search skipped.
func (s *Searcher) begin(n *model.Network, start model.Assignment, method Method, opts Options, r *run) error {
	if err := s.delta.Sync(n, start, opts.Model); err != nil {
		return err
	}
	s.out = start
	s.net, s.util, s.lagging = n, opts.Model.Utility, true
	s.reach.sync(n)
	s.cands.Ensure(n, DefaultNeighborhood)
	s.placed, s.commits, s.improving = 0, 0, 0
	s.written = s.written[:0]
	if method != HillClimbing || s.unplaced() > 0 {
		s.catchUp()
		s.place(r)
	}
	s.bestScore = s.delta.Score()
	s.annealing = method == Annealing
	if s.annealing {
		s.best = s.delta.AppendAssignment(s.best)
	}
	s.traj = append(s.traj[:0], s.bestScore.Primary)
	return nil
}

// catchUp brings the visit order up to the running search's network,
// once per search. The order is a pure function of the committed
// state, so when it catches up changes no visit.
func (s *Searcher) catchUp() {
	if s.lagging {
		s.rank.sync(s.net, s.util, s.delta.Evals)
		s.lagging = false
	}
}

// unplaced counts the users no cell holds, in O(extenders).
func (s *Searcher) unplaced() int {
	free := s.net.NumUsers()
	for j := 0; j < s.net.NumExtenders(); j++ {
		free -= len(s.delta.Members(j))
	}
	return free
}

// place greedily assigns every Unassigned user, in ascending key order,
// to the candidate that maximizes the score (the aggregate, under the
// zero utility) — the same arrivals-are-free rule as
// core.AssignIncrementalWith, so the move budget is untouched. Probes
// still count (they are real work), and an exhausted budget leaves the
// remaining users unassigned, which is still a valid state. The cells'
// member counts say how many users are unassigned, so the scan stops
// after the last of them — a warm repair with no arrivals scans nothing.
func (s *Searcher) place(r *run) {
	s.arrivals = s.arrivals[:0]
	for i, free := 0, s.unplaced(); len(s.arrivals) < free; i++ {
		if s.delta.Assigned(i) == model.Unassigned {
			s.arrivals = append(s.arrivals, i)
		}
	}
	for _, i := range inKeyOrder(s.net, s.arrivals) {
		bestTo := -1
		bestSc := model.Score{Primary: math.Inf(-1), Tie: math.Inf(-1)}
		for _, to := range s.cands.For(i) {
			if !r.takeProbe() {
				break
			}
			if sc, ok := s.delta.ProbeMoveBeats(i, model.Unassigned, to, bestSc, 0); ok {
				bestTo, bestSc = to, sc
			}
		}
		if bestTo >= 0 {
			s.commit(i, model.Unassigned, bestTo)
			s.placed++
		}
		if r.halted {
			return
		}
	}
}

// commit applies the move (i: from → to) to the evaluator and the
// caller's assignment, records the write, and marks i's place in the
// visit order out of date.
func (s *Searcher) commit(i, from, to int) {
	s.delta.Commit(i, from, to)
	s.out[i] = to
	s.written = append(s.written, i)
	s.rank.touch(i)
	s.commits++
}

// inKeyOrder sorts rows by their order key in n and returns them.
func inKeyOrder(n *model.Network, rows []int) []int {
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(n.Key(a), n.Key(b)) })
	return rows
}

// noteBest records the committed state as the new best. Only the
// annealer copies the assignment: hill climbing and k-opt end on their
// best state, which the commits have already written into the caller's
// assignment.
func (s *Searcher) noteBest() {
	s.bestScore = s.delta.Score()
	if s.annealing {
		s.best = s.delta.AppendAssignment(s.best)
	}
	s.traj = append(s.traj, s.bestScore.Primary)
	s.improving++
}

// hillClimb runs deficit-ordered greedy sweeps: each pass visits users
// in descending rate deficit (the user's best candidate rate minus its
// current rate, in the utility's units — plain arithmetic, no probes)
// and commits each user's best improving move the moment it is found.
// The ordering is what makes warm re-solves sub-millisecond: users
// parked far below their best link — churned arrivals, roamed users —
// are examined within the first few hundred probes, so a tight budget
// repairs the damage long before a full pass would finish.
//
// The order is the Searcher's persistent deficitRank, not rebuilt per
// pass: the first pass that probes replays the network's row edits
// into it (catchUp), every commit (Place's included) marks the moved
// user dirty, and each pass starts by flushing the dirty users —
// O(edits + dirty·log users) per call instead of a heap over every
// user, with a wholesale change (another network or utility, a gap
// longer than the edit log, an evaluator re-Attach) falling back to
// one heapify, no dearer than a per-pass heap. A user's deficit depends only on its own row and extender, and
// the flush runs only at pass start, so each pass walks exactly the
// order a fresh sort of the committed state at pass start would give:
// visit order, probes, commits and trajectory are those of a per-pass
// sort.
//
// The local-optimum certificate is unchanged: only a complete pass that
// commits nothing (and therefore probed every candidate of every user)
// ends the climb. Each commit strictly increases the aggregate by more
// than improveEps, so the loop terminates; the visit order is a pure
// function of the committed state, so trajectories are deterministic
// and a larger probe budget only ever extends a smaller one's.
//
// A probe no user can win (model.DeltaEval.ProbeDominated) is answered
// in O(1) without reading the user's row, and a pass in which every
// probe is such a one is priced whole (chargeDominated): decisions and
// counts are the loop's own.
func (s *Searcher) hillClimb(r *run) {
	for {
		if s.chargeDominated(r) {
			return
		}
		s.catchUp()
		s.rank.flush(&s.delta)
		committed := false
		for p := 0; ; p++ {
			i := s.rank.at(p)
			if i < 0 {
				break
			}
			from := s.delta.Assigned(i)
			if from == model.Unassigned {
				continue // unplaced only when placement ran out of budget
			}
			bestTo, bestSc := -1, s.bestScore
			for _, to := range s.cands.For(i) {
				if to == from {
					continue
				}
				if !r.takeProbe() {
					break
				}
				if s.delta.ProbeDominated(from, to, bestSc, improveEps) {
					continue
				}
				if sc, ok := s.delta.ProbeMoveBeats(i, from, to, bestSc, improveEps); ok {
					bestTo, bestSc = to, sc
				}
			}
			if bestTo >= 0 && r.takeMove() {
				s.commit(i, from, bestTo)
				s.noteBest()
				committed = true
			}
			if r.halted {
				return
			}
		}
		if !committed {
			return // a full clean pass: single-move local optimum
		}
	}
}

// chargeDominated prices a hill-climb pass that no move can win without
// running it, and reports whether it did; the climb then ends. It
// applies when the committed state is dominated
// (model.DeltaEval.Dominated: sum-rate without Redistribute, every
// extender active with at least two members and capped), every user
// is placed, and each user's neighborhood is all of its reachable
// extenders. The pass would then probe each user's other reachable
// extenders, K = Σ (reach − 1) probes, have every one rejected by the
// bound, and commit nothing. Only the probe budget can cut it short,
// so the loop's own accounting is min(K, probes left) bounded probes, then a StopProbes halt when K
// exceeds what was left and the single-move optimum otherwise. That
// costs O(extenders) instead of K probes.
func (s *Searcher) chargeDominated(r *run) bool {
	n := s.net
	if s.cands.M() < n.NumExtenders() ||
		!s.delta.Dominated(s.bestScore, improveEps) || s.unplaced() > 0 {
		return false
	}
	s.delta.ChargeDominated(r.takeProbes(s.reach.sum - n.NumUsers()))
	return true
}

// kopt escapes single-move local optima with eject/reinsert chains:
// climb to an optimum, then from each seed user build a chain of up to
// kOptDepth moves — move the user to its best candidate even if that
// worsens the objective, then eject the weakest member of the
// destination cell and continue. The best improving prefix of the
// chain is kept; the rest is rolled back by committing the moves in
// reverse, which restores the evaluator bit-identically (DESIGN.md
// §10: a cell's sum depends only on its member set). When any chain
// improves, the climb restarts, Lin-Kernighan style.
func (s *Searcher) kopt(n *model.Network, opts Options, r *run) {
	users := n.NumUsers()
	if cap(s.moved) < users {
		s.moved = make([]bool, users)
	}
	// A previous search may have left marks for users of a larger
	// network: start every k-opt from a clean slate.
	s.moved = s.moved[:users]
	clear(s.moved)
	s.movedList = s.movedList[:0]
	for {
		s.hillClimb(r)
		if r.halted {
			return
		}
		improved := false
		s.order = s.order[:0]
		for u := 0; u < users; u++ {
			s.order = append(s.order, u)
		}
		for _, u := range inKeyOrder(n, s.order) {
			if s.tryChain(n, u, r) {
				improved = true
			}
			if r.halted {
				return
			}
		}
		if !improved {
			r.stop = StopOptimum
			return
		}
	}
}

// tryChain builds one eject/reinsert chain seeded at user u and keeps
// its best improving prefix. Returns whether the best aggregate
// improved. On any exit — including budget exhaustion mid-chain — every
// tentative commit beyond the kept prefix has been rolled back.
func (s *Searcher) tryChain(n *model.Network, u0 int, r *run) bool {
	s.chainUser = s.chainUser[:0]
	s.chainFrom = s.chainFrom[:0]
	s.chainTo = s.chainTo[:0]
	for _, u := range s.movedList {
		s.moved[u] = false
	}
	s.movedList = s.movedList[:0]

	bestDepth := 0
	bestChainSc := s.bestScore
	u := u0
	for len(s.chainUser) < kOptDepth {
		from := s.delta.Assigned(u)
		if from == model.Unassigned {
			break
		}
		bestTo := -1
		bestSc := model.Score{Primary: math.Inf(-1), Tie: math.Inf(-1)}
		for _, to := range s.cands.For(u) {
			if to == from {
				continue
			}
			if !r.takeProbe() {
				break
			}
			if sc, ok := s.delta.ProbeMoveBeats(u, from, to, bestSc, 0); ok {
				bestTo, bestSc = to, sc
			}
		}
		if bestTo < 0 {
			break
		}
		s.commit(u, from, bestTo)
		s.chainUser = append(s.chainUser, u)
		s.chainFrom = append(s.chainFrom, from)
		s.chainTo = append(s.chainTo, bestTo)
		s.moved[u] = true
		s.movedList = append(s.movedList, u)
		if bestSc.BetterEps(bestChainSc, improveEps) {
			bestChainSc = bestSc
			bestDepth = len(s.chainUser)
		}
		if r.halted {
			break
		}
		// Eject the destination cell's weakest link (lowest rate to
		// bestTo, lowest key on ties: members are in key order) that
		// the chain hasn't moved yet: the member whose departure would
		// help that cell most.
		u = -1
		worst := math.Inf(1)
		for _, m := range s.delta.Members(bestTo) {
			if s.moved[m] {
				continue
			}
			if rate := n.WiFiRates[m][bestTo]; rate < worst {
				u, worst = m, rate
			}
		}
		if u < 0 {
			break
		}
	}

	// The move budget caps net re-associations: truncate the kept
	// prefix to what remains.
	if r.movesLeft >= 0 && bestDepth > r.movesLeft {
		bestDepth = r.movesLeft
		bestChainSc = s.bestScore // prefix score unknown; recheck below
	}
	for k := len(s.chainUser) - 1; k >= bestDepth; k-- {
		s.commit(s.chainUser[k], s.chainTo[k], s.chainFrom[k])
	}
	if bestDepth == 0 {
		return false
	}
	if s.delta.Score().BetterEps(s.bestScore, improveEps) {
		for k := 0; k < bestDepth; k++ {
			r.takeMove()
		}
		s.noteBest()
		return true
	}
	// Truncation left a non-improving prefix: unwind it too.
	for k := bestDepth - 1; k >= 0; k-- {
		s.commit(s.chainUser[k], s.chainTo[k], s.chainFrom[k])
	}
	return false
}

// anneal performs a Metropolis walk over random candidate moves with a
// geometrically cooled temperature: accept any improvement, accept a
// degradation Δ<0 with probability exp(Δ/T). The best-so-far state is
// tracked separately, so a wandering walk still returns its peak.
func (s *Searcher) anneal(n *model.Network, opts Options, r *run) {
	s.movable = s.movable[:0]
	for i := 0; i < n.NumUsers(); i++ {
		if s.delta.Assigned(i) != model.Unassigned && len(s.cands.For(i)) > 0 {
			s.movable = append(s.movable, i)
		}
	}
	inKeyOrder(n, s.movable)
	if len(s.movable) == 0 {
		r.stop = StopOptimum
		return
	}

	rng := seed.Rand(opts.Seed, seed.StrategyRand, 0)
	// The walk starts at 2% of the seed score's magnitude (utility
	// units; Mbps under the zero utility): early steps accept moves that
	// cost up to a couple percent of the objective, late steps only
	// improvements. It freezes at annealFloor of that temperature,
	// reached exactly when the probe budget runs out, so every budget
	// gets a full hot-to-greedy schedule.
	t0 := 0.02 * math.Max(math.Abs(s.bestScore.Primary), 1)
	cool := annealCooling
	if opts.Budget.Probes > 0 {
		cool = math.Pow(annealFloor, 1/float64(opts.Budget.Probes))
	}
	floor := t0 * annealFloor

	curScore := s.delta.Score()
	temp := t0
	for {
		if temp < floor {
			r.haltWith(StopFrozen)
			return
		}
		i := s.movable[rng.Intn(len(s.movable))]
		cl := s.cands.For(i)
		to := cl[rng.Intn(len(cl))]
		from := s.delta.Assigned(i)
		if !r.takeProbe() {
			return
		}
		// Metropolis Δ is the primary (utility) delta; the rng draw
		// sequence — one Float64 per non-improving candidate — is
		// independent of the utility choice, so the zero utility
		// replays today's walk bit-for-bit.
		sc := s.delta.ProbeMoveScore(i, from, to)
		if to != from {
			delta := sc.Primary - curScore.Primary
			if delta > 0 || rng.Float64() < math.Exp(delta/temp) {
				if !r.takeMove() {
					return
				}
				s.commit(i, from, to)
				curScore = s.delta.Score()
				if curScore.BetterEps(s.bestScore, improveEps) {
					s.noteBest()
				}
			}
		}
		temp *= cool
	}
}

// finish assembles the Result from the search state. The Start entry
// is trajectory[0] (the post-placement baseline). Every method but
// Annealing ends on its best state, which the commits have already
// written into the caller's assignment; the annealer copies its best
// state over the walk's end state, an assignment edit the evaluator did
// not make (model.Network.AssignmentEdited).
func (s *Searcher) finish(r *run) *Result {
	if s.annealing {
		copy(s.out, s.best)
		s.net.AssignmentEdited()
	}
	s.res = Result{
		Assign:     s.out,
		Aggregate:  s.bestScore.Tie,
		Utility:    s.bestScore.Primary,
		Placed:     s.placed,
		Commits:    s.commits,
		Improving:  s.improving,
		Written:    s.written,
		Trajectory: s.traj,
		Stop:       r.stop,
	}
	if len(s.traj) > 0 {
		s.res.Start = s.traj[0]
	}
	return &s.res
}
