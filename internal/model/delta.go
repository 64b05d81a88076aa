package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DeltaEval is a stateful evaluator for single-move what-if probes. It
// holds a validated (network, assignment) pair together with the
// evaluation's internal accumulators — per-cell harmonic sums and user
// counts, the per-cell sorted member lists, the ascending active set and
// the water-fill scratch — so that "what happens if user i moves from
// extender `from` to extender `to`?" can be answered by recomputing only
// the two affected cells and re-running the water-fill over the active
// set: O(|cell_from| + |cell_to| + active) per probe instead of
// O(users + extenders) for a full EvaluateWith, with zero per-probe
// allocations and no re-validation. An argmax loop that only asks
// whether a move beats its bar (ProbeMoveBeats) mostly skips even the
// two cell sums.
//
// Bit-identity contract (DESIGN.md §10): every aggregate and per-user
// throughput reported by a DeltaEval is bit-for-bit identical to a fresh
// EvaluateWith of the same assignment. EvaluateWith accumulates each
// cell's Σ 1/r in ascending key order (Network.Key), walks the active
// set in ascending extender order through the water-fill, and sums the
// aggregate in that same order; DeltaEval keeps each cell's member list
// in ascending key order, alongside a parallel array of the members'
// 1/r terms (each computed by the same division EvaluateWith performs),
// and recomputes an affected cell's harmonic sum by re-summing that
// array in member order, so the floating-point operation sequence —
// and therefore every rounding — matches the full evaluator's.
// Probe-driven search loops rewired from EvaluateWith to DeltaEval make
// identical decisions, keeping the §7 determinism contracts intact.
//
// Validation happens once, at Attach. The network's generation counter
// is recorded there; any later mutation of the network (a row edit or
// an Invalidate) makes every subsequent probe panic instead of
// answering from stale accumulators, until Sync catches the evaluator
// up. A DeltaEval is not safe for concurrent use; give each worker
// goroutine its own, exactly like EvalScratch.
type DeltaEval struct {
	// Evals counts Attach rebuilds and Probes counts probes (every
	// ProbeMove* call, and every probe ProbeDominated or ChargeDominated
	// answers for one) since the caller last reset them; Bounded counts
	// the ProbeMoveBeats probes its upper bound answered without an
	// exact re-sum, or would have. They are the work metrics behind
	// strategy.Stats.Evaluations, DeltaProbes and BoundedProbes, and no
	// counter influences results.
	Evals   int
	Probes  int
	Bounded int

	net  *Network
	opts Options
	gen  uint64

	assign  Assignment  // private copy, updated by Commit
	aedits  uint64      // the network's AssignmentEdited count at the last Sync
	members [][]int     // per-cell user indices, in ascending key order
	inv     [][]float64 // per-cell 1/r of each member, parallel to members
	invSum  []float64   // per-cell Σ 1/r over members, summed ascending
	count   []int       // len(members[j])
	demand  []float64   // T_WiFi_j = count/invSum (0 for empty cells)
	active  []int       // cells with count > 0, ascending

	// from-cell memo: memoDem is the demand of memoUser's committed
	// cell without memoUser, exact when memoExact and otherwise
	// leaveDemand's upper bound. A user's candidate probes all share it,
	// so it is computed once per user; only Commit moves a user, so
	// Commit (and Attach) reset memoUser to -1.
	memoUser  int
	memoDem   float64
	memoExact bool

	perExt    []float64 // committed per-extender delivered throughput
	aggregate float64   // committed Σ perExt over active, ascending
	utility   float64   // committed Options.Utility value (== aggregate for sum-rate)
	// capped[j] reports that active cell j delivers its full PLC share,
	// !(demand[j] < fair·c_j), under the sum-rate utility without
	// Redistribute; it is false otherwise. recommit keeps
	// it, so ProbeDominated reads two flags instead of redoing the min.
	capped []bool

	// probe scratch, sized to the active set of the hypothesis
	pActive    []int
	pNeed      []float64
	pShares    []float64
	pSatisfied []bool
}

// Attach validates the (network, assignment) pair once, copies the
// assignment, and (re)builds every accumulator. Callers that keep an
// evaluator across calls use Sync, which attaches only when it cannot
// catch up more cheaply.
func (d *DeltaEval) Attach(n *Network, a Assignment, opts Options) error {
	if err := validateAssignment(n, a); err != nil {
		return err
	}
	d.net = n
	d.opts = opts
	d.gen = n.gen
	d.aedits = n.assignEdits
	d.Evals++
	d.memoUser = -1

	numExt := n.NumExtenders()
	d.assign = append(d.assign[:0], a...)
	if cap(d.members) < numExt {
		d.members = make([][]int, numExt)
		d.inv = make([][]float64, numExt)
	}
	d.members = d.members[:numExt]
	d.inv = d.inv[:numExt]
	for j := range d.members {
		d.members[j] = d.members[j][:0]
		d.inv[j] = d.inv[j][:0]
	}
	// Member lists in ascending key order: the invariant all delta
	// recomputation relies on.
	for i, j := range a {
		if j != Unassigned {
			d.members[j] = append(d.members[j], i)
		}
	}
	for j, m := range d.members {
		if n.keys != nil {
			slices.SortFunc(m, func(a, b int) int { return cmp.Compare(n.keys[a], n.keys[b]) })
		}
		for _, i := range m {
			d.inv[j] = append(d.inv[j], 1/n.WiFiRates[i][j])
		}
	}
	d.invSum = growFloats(d.invSum, numExt)
	d.count = growZeroInts(d.count, numExt)
	d.demand = growZeroFloats(d.demand, numExt)
	d.perExt = growZeroFloats(d.perExt, numExt)
	d.capped = growBools(d.capped, numExt)
	clear(d.capped)
	d.active = d.active[:0]
	for j := 0; j < numExt; j++ {
		d.recomputeCell(j)
		if d.count[j] > 0 {
			d.active = append(d.active, j)
		}
	}
	d.pActive = growInts(d.pActive, numExt)
	d.pNeed = growFloats(d.pNeed, numExt)
	d.pShares = growFloats(d.pShares, numExt)
	d.pSatisfied = growBools(d.pSatisfied, numExt)
	d.recommit()
	return nil
}

// Sync makes the evaluator's committed state exactly the given
// (network, assignment, options) triple, as cheaply as it can. When the
// evaluator trails n only by logged row edits (Network.Replayable) it
// replays them in order, each an O(cell) edit of the accumulators that
// keeps every member list in key order and therefore every cell sum's
// float sequence:
//
//   - insert: the new user enters unassigned;
//   - remove: the user leaves its cell exactly as Commit(i, from,
//     Unassigned) would take it out, and the moved last row's member
//     entry is renamed in place;
//   - set: the user's cached 1/r is recomputed from the new row and its
//     cell re-summed and re-shared; a set that leaves the cell
//     unreachable takes the user out, as its owner does, and forces the
//     assignment compare.
//
// A row of the wrong width stops the replay; the evaluator then falls
// back to Attach, which reports the error exactly as it would have
// without the replay. Anything else — another network or options, an
// Invalidate, a gap longer than the log — is an Attach too, as is a
// replayed state whose assignment differs from a; on a keyed network
// the assignments are compared only after Network.AssignmentEdited.
// After an error the evaluator is detached, so neither a half-finished
// replay nor a rejected pair can be probed. The result is bit-identical
// to a fresh Attach either way (DESIGN.md §10).
func (d *DeltaEval) Sync(n *Network, a Assignment, opts Options) error {
	if d.net == n && d.opts == opts && d.gen != n.gen && n.Replayable(d.gen) {
		if !d.replay() {
			d.net = nil
		}
	}
	if d.matches(n, a, opts) {
		d.aedits = n.assignEdits
		return nil
	}
	if err := d.Attach(n, a, opts); err != nil {
		d.net = nil
		return err
	}
	return nil
}

// matches reports whether the evaluator's committed state is exactly
// the given (network, assignment, options) triple.
func (d *DeltaEval) matches(n *Network, a Assignment, opts Options) bool {
	if d.net != n || d.gen != n.gen || d.opts != opts || len(d.assign) != len(a) {
		return false
	}
	return n.keys != nil && d.aedits == n.assignEdits || slices.Equal(d.assign, a)
}

// replay applies the network's logged row edits since the evaluator's
// generation (see Sync). It reports false, with the state half-edited,
// at a row of the wrong width.
func (d *DeltaEval) replay() bool {
	n := d.net
	d.memoUser = -1
	for g := d.gen + 1; g <= n.gen; g++ {
		e := n.Edit(g)
		if e.Rates != nil && len(e.Rates) != n.NumExtenders() {
			return false
		}
		switch e.Kind {
		case EditInsert:
			d.assign = append(d.assign, Unassigned)
		case EditRemove:
			d.leave(e.Row)
			last := len(d.assign) - 1
			if j := d.assign[last]; j != Unassigned && last != e.Row {
				d.members[j][slices.Index(d.members[j], last)] = e.Row
			}
			d.assign[e.Row] = d.assign[last]
			d.assign = d.assign[:last]
		case EditSet:
			j := d.assign[e.Row]
			switch {
			case j == Unassigned:
			case e.Rates[j] > 0:
				d.inv[j][slices.Index(d.members[j], e.Row)] = 1 / e.Rates[j]
				d.recomputeCell(j)
				d.recommit()
			default: // the compare ending this Sync checks the owner did too
				d.leave(e.Row)
				d.aedits = n.assignEdits - 1
			}
		}
		d.gen = g
	}
	return true
}

// leave takes user i out of its committed cell, if it has one.
func (d *DeltaEval) leave(i int) {
	if from := d.assign[i]; from != Unassigned {
		d.move(i, from, Unassigned)
	}
}

// Aggregate returns the committed assignment's total end-to-end
// throughput — bit-identical to EvaluateWith's Result.Aggregate.
func (d *DeltaEval) Aggregate() float64 {
	d.check()
	return d.aggregate
}

// Score returns the committed assignment's lexicographic objective
// (Utility primary, Aggregate tie-break).
func (d *DeltaEval) Score() Score {
	d.check()
	return Score{Primary: d.utility, Tie: d.aggregate}
}

// PerUser returns user i's committed end-to-end throughput —
// bit-identical to EvaluateWith's Result.PerUser[i].
func (d *DeltaEval) PerUser(i int) float64 {
	d.check()
	j := d.assign[i]
	if j == Unassigned {
		return 0
	}
	return d.perExt[j] / float64(d.count[j])
}

// Assigned returns user i's committed extender (or Unassigned).
func (d *DeltaEval) Assigned(i int) int {
	d.check()
	return d.assign[i]
}

// AppendAssignment appends the committed assignment to dst[:0] (reusing
// its capacity) and returns it — the allocation-free way for a search
// loop to snapshot its best-so-far state.
func (d *DeltaEval) AppendAssignment(dst Assignment) Assignment {
	d.check()
	return append(dst[:0], d.assign...)
}

// Members returns cell j's committed member list, in ascending key
// order. The slice is owned by the evaluator — callers must not mutate
// it, and it is valid only until the next Commit or Attach. Chain
// searches (k-opt eject/reinsert) use it to pick the user displaced by
// a move without rebuilding per-cell tables of their own.
func (d *DeltaEval) Members(j int) []int {
	d.check()
	return d.members[j]
}

// ProbeMove returns the aggregate throughput the network would have if
// user i moved from extender `from` (its committed cell) to extender
// `to`; either end may be Unassigned. The committed state is untouched
// and nothing is allocated.
func (d *DeltaEval) ProbeMove(i, from, to int) float64 {
	agg, _, _ := d.exactProbe(i, from, to)
	return agg
}

// ProbeMoveUser is ProbeMove also reporting user i's own end-to-end
// throughput under the hypothesis (0 when to == Unassigned) — the
// quantity the selfish baseline maximizes.
func (d *DeltaEval) ProbeMoveUser(i, from, to int) (agg, own float64) {
	agg, own, _ = d.exactProbe(i, from, to)
	return agg, own
}

// ProbeMoveScore returns the lexicographic objective the network would
// have under the (i: from → to) hypothesis — the comparison value of
// every utility-aware search loop. For the zero sum-rate utility both
// components equal ProbeMove's aggregate, so Score comparisons reduce
// bit-for-bit to the old aggregate comparisons.
func (d *DeltaEval) ProbeMoveScore(i, from, to int) Score {
	agg, _, util := d.exactProbe(i, from, to)
	return Score{Primary: util, Tie: agg}
}

// ProbeMoveBeats answers the argmax loop's question about the
// (i: from → to) hypothesis — does its score beat bar by more than eps?
// — with exactly the decision ProbeMoveScore(i, from, to).BetterEps(bar,
// eps) makes, as one probe. When it does, the returned Score is the
// probe's exact score. Under the sum-rate utility without Redistribute
// the probe first scores a proven upper bound on the aggregate, built
// from the cached cell sums in O(active cells) (DESIGN.md §10): a bound that cannot beat bar answers false without
// re-summing either cell, and Bounded counts the probe. Only a bound
// that passes pays the exact O(|cell|) probe. On false the returned
// Score is an upper bound, not the probe's value.
func (d *DeltaEval) ProbeMoveBeats(i, from, to int, bar Score, eps float64) (Score, bool) {
	d.checkMove(i, from, to)
	d.Probes++
	if from != to && d.opts.Utility.IsSumRate() && !d.opts.Redistribute {
		ub, _, _ := d.probe(i, from, to, true)
		if sc := (Score{Primary: ub, Tie: ub}); !sc.BetterEps(bar, eps) {
			d.Bounded++
			return sc, false
		}
	}
	agg, _, util := d.probe(i, from, to, false)
	sc := Score{Primary: util, Tie: agg}
	return sc, sc.BetterEps(bar, eps)
}

// ProbeDominated answers ProbeMoveBeats(i, from, to, bar, eps) in O(1),
// without reading user i's rate row, for a move no user can win
// (DESIGN.md §10): under the sum-rate utility without Redistribute,
// `from` keeps a member and `to` already has one, both
// cells deliver their full PLC share (capped), and the committed score
// does not beat bar. Then the active set and the share are unchanged,
// each of the two cells can deliver no more than its share, which it
// already delivers, and ProbeMoveBeats' bound rejects the move. On true
// the probe is counted as that call counts it: one Probes, one Bounded.
// On false nothing is counted and the caller asks ProbeMoveBeats. The
// caller vouches for the move as checkMove would (i sits on `from`,
// `to` is reachable), since nothing here reads i.
func (d *DeltaEval) ProbeDominated(from, to int, bar Score, eps float64) bool {
	d.check()
	if from == to || from < 0 || to < 0 || !d.capped[from] || !d.capped[to] ||
		d.count[from] < 2 || d.beats(bar, eps) {
		return false
	}
	d.Probes++
	d.Bounded++
	return true
}

// Dominated reports whether ProbeDominated holds for every move between
// two extenders: the model qualifies, every extender is active with at
// least two members and capped, and the committed score does not beat
// bar. Then no single re-association of an assigned user can beat bar,
// and a search may price a whole pass of such probes at once
// (ChargeDominated). It costs O(extenders).
func (d *DeltaEval) Dominated(bar Score, eps float64) bool {
	d.check()
	if len(d.active) != d.net.NumExtenders() || d.beats(bar, eps) {
		return false
	}
	for _, j := range d.active {
		if d.count[j] < 2 || !d.capped[j] {
			return false
		}
	}
	return true
}

// ChargeDominated counts k probes that Dominated proved ProbeMoveBeats
// would reject from its bound, as k such calls would count them.
func (d *DeltaEval) ChargeDominated(k int) {
	d.Probes += k
	d.Bounded += k
}

// beats reports whether the committed score beats bar by more than eps.
func (d *DeltaEval) beats(bar Score, eps float64) bool {
	return Score{Primary: d.utility, Tie: d.aggregate}.BetterEps(bar, eps)
}

// exactProbe is the checked, counted exact probe behind ProbeMove,
// ProbeMoveUser and ProbeMoveScore.
func (d *DeltaEval) exactProbe(i, from, to int) (agg, own, util float64) {
	d.checkMove(i, from, to)
	d.Probes++
	return d.probe(i, from, to, false)
}

// Commit applies the move (i: from → to) to the committed state: the two
// affected member lists (and their parallel 1/r arrays) are edited in
// place, their harmonic sums recomputed in member (key) order, the
// active set updated, and the water-fill re-run — leaving every
// accumulator bit-identical to a fresh Attach of the moved assignment.
func (d *DeltaEval) Commit(i, from, to int) {
	d.checkMove(i, from, to)
	if from == to {
		return
	}
	d.move(i, from, to)
}

// move is Commit without the checks: from != to, i sits on from, and
// to is Unassigned or reachable.
func (d *DeltaEval) move(i, from, to int) {
	d.memoUser = -1
	if from != Unassigned {
		k := slices.Index(d.members[from], i)
		d.members[from] = slices.Delete(d.members[from], k, k+1)
		d.inv[from] = slices.Delete(d.inv[from], k, k+1)
		d.recomputeCell(from)
	}
	if to != Unassigned {
		k := d.search(to, i)
		d.members[to] = slices.Insert(d.members[to], k, i)
		d.inv[to] = slices.Insert(d.inv[to], k, 1/d.net.WiFiRates[i][to])
		d.recomputeCell(to)
	}
	d.assign[i] = to

	// Maintain the ascending active list: drop `from` if it emptied,
	// insert `to` if it just lit up.
	if from != Unassigned && d.count[from] == 0 {
		for k, j := range d.active {
			if j == from {
				d.active = append(d.active[:k], d.active[k+1:]...)
				break
			}
		}
		d.perExt[from] = 0
		d.capped[from] = false
	}
	if to != Unassigned && d.count[to] == 1 {
		a := append(d.active, 0)
		k := len(a) - 1
		for k > 0 && a[k-1] > to {
			a[k] = a[k-1]
			k--
		}
		a[k] = to
		d.active = a
	}
	d.recommit()
}

// search returns user i's position, present or prospective, in cell j's
// key-ordered member list, by the network's current keys.
func (d *DeltaEval) search(j, i int) int {
	n := d.net
	k, _ := slices.BinarySearchFunc(d.members[j], n.Key(i), func(m, key int) int { return cmp.Compare(n.Key(m), key) })
	return k
}

// recomputeCell rebuilds cell j's harmonic sum, count and WiFi demand
// from its 1/r array. Members are in key order, so the summation order
// — and every rounding — matches EvaluateWith's key-order accumulation
// exactly.
func (d *DeltaEval) recomputeCell(j int) {
	var inv float64
	for _, v := range d.inv[j] {
		inv += v
	}
	d.invSum[j] = inv
	c := len(d.members[j])
	d.count[j] = c
	if c > 0 {
		d.demand[j] = float64(c) / inv
	} else {
		d.demand[j] = 0
	}
}

// recommit re-runs the PLC sharing stage over the committed active set,
// refreshing perExt and the aggregate.
func (d *DeltaEval) recommit() {
	agg := 0.0
	act := d.active
	if len(act) > 0 {
		if d.opts.Redistribute {
			need := d.pNeed[:len(act)]
			for k, j := range act {
				need[k] = d.demand[j] / d.net.PLCCaps[j]
			}
			shares := d.pShares[:len(act)]
			satisfied := d.pSatisfied[:len(act)]
			waterFillTimeInto(shares, satisfied, need)
			for k, j := range act {
				d.perExt[j] = minf(d.demand[j], shares[k]*d.net.PLCCaps[j])
			}
		} else {
			fair := 1 / float64(len(act))
			dom := d.opts.Utility.IsSumRate()
			for _, j := range act {
				share := fair * d.net.PLCCaps[j]
				d.perExt[j] = minf(d.demand[j], share)
				d.capped[j] = dom && !(d.demand[j] < share)
			}
		}
		for _, j := range act {
			agg += d.perExt[j]
		}
	}
	d.aggregate = agg
	if d.opts.Utility.IsSumRate() {
		d.utility = agg
	} else {
		d.utility = utilityOver(d.opts.Utility, act, d.perExt, d.count)
	}
}

// probe evaluates the (i: from → to) hypothesis without touching the
// committed state: the two affected cells' demands come from
// leaveDemand and joinDemand, the hypothetical active set is built
// ascending, and the water-fill and aggregate sum run over it in
// exactly EvaluateWith's order. The utility rides the same single
// pass: each cell's contribution is accumulated (or min-tracked, for
// max-min) as its delivered throughput is produced, so non-sum-rate
// probes stay O(Δ) and allocation-free; the sum-rate utility is the
// aggregate itself and costs nothing extra.
//
// With bounded set the two demands are upper bounds instead of exact
// values and everything after them is the same tail. Without
// Redistribute that tail is a min with a fixed share per cell and a
// sum in a fixed order; round-to-nearest is monotone in each operand
// of min and +, as it is in the divisor of upperDemand's /, so the
// aggregate it returns is at or above the exact probe's. Only
// ProbeMoveBeats asks for it, under sum-rate without Redistribute.
func (d *DeltaEval) probe(i, from, to int, bounded bool) (agg, own, util float64) {
	if from == to {
		return d.aggregate, d.PerUser(i), d.utility
	}

	// Hypothetical demands and counts of the two affected cells.
	fromDem, toDem := 0.0, 0.0
	toCount := 0
	if from != Unassigned && d.count[from] > 1 {
		fromDem = d.leaveDemand(i, from, bounded)
	}
	if to != Unassigned {
		toCount = d.count[to] + 1
		toDem = d.joinDemand(i, to, bounded)
	}

	// Hypothetical active set, ascending: committed active with `from`
	// dropped when it empties and `to` merged in when it lights up.
	act := d.pActive[:0]
	dropFrom := from != Unassigned && d.count[from] == 1
	addTo := to != Unassigned && d.count[to] == 0
	for _, j := range d.active {
		if dropFrom && j == from {
			continue
		}
		if addTo && to < j {
			act = append(act, to)
			addTo = false
		}
		act = append(act, j)
	}
	if addTo {
		act = append(act, to)
	}
	// act aliases pActive's backing array (capacity numExt bounds every
	// hypothetical active set, so the appends never reallocate).

	if len(act) == 0 {
		return 0, 0, 0
	}
	demandAt := func(j int) float64 {
		switch j {
		case from:
			return fromDem
		case to:
			return toDem
		}
		return d.demand[j]
	}
	countAt := func(j int) int {
		switch j {
		case from:
			return d.count[from] - 1
		case to:
			return toCount
		}
		return d.count[j]
	}
	u := d.opts.Utility
	sumRate := u.IsSumRate()
	minShare := math.Inf(1)
	toPer := 0.0
	if d.opts.Redistribute {
		need := d.pNeed[:len(act)]
		for k, j := range act {
			need[k] = demandAt(j) / d.net.PLCCaps[j]
		}
		shares := d.pShares[:len(act)]
		satisfied := d.pSatisfied[:len(act)]
		waterFillTimeInto(shares, satisfied, need)
		for k, j := range act {
			per := minf(demandAt(j), shares[k]*d.net.PLCCaps[j])
			agg += per
			if j == to {
				toPer = per
			}
			if !sumRate {
				if u.MaxMin {
					if share := per / float64(countAt(j)); share < minShare {
						minShare = share
					}
				} else {
					util += u.CellUtility(countAt(j), per)
				}
			}
		}
	} else {
		fair := 1 / float64(len(act))
		for _, j := range act {
			per := minf(demandAt(j), fair*d.net.PLCCaps[j])
			agg += per
			if j == to {
				toPer = per
			}
			if !sumRate {
				if u.MaxMin {
					if share := per / float64(countAt(j)); share < minShare {
						minShare = share
					}
				} else {
					util += u.CellUtility(countAt(j), per)
				}
			}
		}
	}
	if sumRate {
		util = agg
	} else if u.MaxMin {
		util = minShare
	}
	if to != Unassigned {
		own = toPer / float64(toCount)
	}
	return agg, own, util
}

// leaveDemand is the WiFi demand of i's committed cell `from` without
// i: exact, re-summing the cell's other 1/r terms in member order, or
// when bounded an upperDemand over the cached cell sum. Either is
// memoised per user, since all of a user's candidate probes share it;
// an exact memo also serves bounded probes. The bound needs no search
// for i's cached term: every cached term is the division 1/r of the
// member's current rate (Attach, move and replay all store exactly
// that), so redoing it gives the same float.
func (d *DeltaEval) leaveDemand(i, from int, bounded bool) float64 {
	if d.memoUser == i && (bounded || d.memoExact) {
		return d.memoDem
	}
	cell := d.inv[from]
	c := float64(len(cell) - 1)
	d.memoUser, d.memoExact = i, !bounded
	if bounded {
		x := 1 / d.net.WiFiRates[i][from]
		d.memoDem = upperDemand(c, d.invSum[from]-x, d.invSum[from], len(cell))
		return d.memoDem
	}
	k := d.search(from, i)
	var inv float64
	for _, v := range cell[:k] {
		inv += v
	}
	for _, v := range cell[k+1:] {
		inv += v
	}
	d.memoDem = c / inv
	return d.memoDem
}

// joinDemand is the WiFi demand of cell `to` with i added. The exact
// value re-sums the cell's 1/r terms with i's merged at its sorted
// position; the bounded value is upperDemand over the cached cell sum.
func (d *DeltaEval) joinDemand(i, to int, bounded bool) float64 {
	x := 1 / d.net.WiFiRates[i][to]
	c := float64(d.count[to] + 1)
	if bounded {
		s := d.invSum[to] + x
		return upperDemand(c, s, s, d.count[to]+1)
	}
	k := d.search(to, i)
	cell := d.inv[to]
	var inv float64
	for _, v := range cell[:k] {
		inv += v
	}
	inv += x
	for _, v := range cell[k:] {
		inv += v
	}
	return c / inv
}

// upperDemand returns an upper bound on count/ŝ, where ŝ is the
// sequential float sum of n positive 1/r terms that the exact probe
// would compute and sum estimates it from the cached cell sum (scale ≥
// sum caps the magnitudes involved). A sequential sum of n positive
// terms is within γₙ₋₁ = (n−1)u/(1−(n−1)u) of its real value,
// relatively, with u = 2⁻⁵³; the cached sum carries one such error and
// ŝ another, so ŝ ≥ sum − 2γₙ·scale. The slack subtracted here,
// (4n+8)·2⁻⁵²·scale, is about four times that, which also covers the
// rounding of this expression, so lo is a lower bound on ŝ and
// count/lo, rounded, is at or above count/ŝ, rounded. A lo at or below
// zero proves nothing (removing a dominant term cancels the sum); the
// demand is then unbounded, and the probe tail's min with the cell's
// PLC share still bounds what the cell delivers.
func upperDemand(count, sum, scale float64, n int) float64 {
	lo := sum - float64(4*n+8)*0x1p-52*scale
	if lo <= 0 {
		return math.Inf(1)
	}
	return count / lo
}

// check panics when the evaluator has no attached state or the network
// was mutated (Invalidate) since Attach — both programmer errors in a
// hot loop, where returning errors would cost more than the probe.
func (d *DeltaEval) check() {
	if d.net == nil {
		panic("model: DeltaEval used before Attach")
	}
	if d.gen != d.net.gen {
		panic("model: network mutated since Attach; Sync the DeltaEval")
	}
}

// checkMove is check plus the move's own invariants: i must currently
// sit on `from`, and `to` must be Unassigned or reachable.
func (d *DeltaEval) checkMove(i, from, to int) {
	d.check()
	if i < 0 || i >= len(d.assign) || d.assign[i] != from {
		panic(fmt.Sprintf("model: DeltaEval move of user %d from %d contradicts committed state", i, from))
	}
	if to != Unassigned && (to < 0 || to >= d.net.NumExtenders() || d.net.WiFiRates[i][to] <= 0) {
		panic(fmt.Sprintf("model: DeltaEval move of user %d to invalid or unreachable extender %d", i, to))
	}
}

// growInts returns s resized to n, reallocating only when capacity is
// short; contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
