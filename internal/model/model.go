// Package model implements the paper's throughput model for concatenated
// PLC+WiFi links (§III–§IV):
//
//   - WiFi cells are throughput-fair (802.11): every user associated with
//     an extender receives the same long-term throughput, and the cell's
//     aggregate is the harmonic form T_WiFi = |N| / Σ_i 1/r_i (eq. 1).
//
//   - The PLC backhaul is time-fair across active extenders (IEEE 1901):
//     each of the A active extenders nominally owns 1/A of the medium time,
//     so T_PLC_j = c_j / A (eq. 2). An extender whose WiFi side demands
//     less than its time share leaves time unused, and that leftover time
//     is re-distributed among the extenders that can still use it (§III-B,
//     observed in the paper's Fig 3c greedy case study). The
//     redistribution is exactly max-min fair water-filling in the time
//     domain.
//
//   - The end-to-end throughput of an extender is the minimum of its two
//     segments, min(T_WiFi_j, T_PLC_j) (objective (3)).
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Unassigned marks a user that is not associated with any extender.
const Unassigned = -1

// Network is the input of the association problem: the WiFi PHY rate
// matrix r_ij and the PLC isolation capacities c_j. A long-lived
// network (a controller's user table) changes one row at a time through
// logged row edits, which state built on it replays instead of
// rebuilding; such a network must not be copied, since the copy would
// share its edit log. A row's order key is its index until the first
// AppendRow or RemoveRow keys the network, and then the key it had or
// AppendRow gave it (a controller's user ID), wherever the row moves:
// a row is only ever appended, or moved from the end into a freed row.
// Everything that depends on user order (cell sums, visit orders,
// tie-breaks) follows ascending key order, so where a row sits changes
// no result.
type Network struct {
	// WiFiRates[i][j] is the WiFi PHY rate (Mbps) of user i when
	// connected to extender j. A non-positive entry means user i cannot
	// reach extender j.
	WiFiRates [][]float64
	// PLCCaps[j] is the PLC isolation capacity c_j (Mbps) of extender j.
	PLCCaps []float64

	// keys[i] is row i's order key; nil until the network is keyed.
	keys []int
	// gen counts mutations of the rate/capacity data: row edits and
	// wholesale changes (Invalidate). Freshly built networks start at
	// generation 0, which is always consistent with a fresh Attach.
	gen uint64
	// floor is the generation of the last Invalidate: edits at or below
	// it cannot be replayed, so state built before it must be rebuilt.
	floor uint64
	// edits is the row-edit log, edits[g%editLogSize] being the edit
	// that produced generation g. Allocated on the first row edit.
	edits *[editLogSize]RowEdit
	// assignEdits counts AssignmentEdited calls.
	assignEdits uint64
}

// editLogSize bounds how many row edits a stateful evaluator or cache
// may trail the network by and still catch up by replaying them; a
// longer gap is a full rebuild.
const editLogSize = 64

// EditKind names the row edits a Network records.
type EditKind uint8

const (
	// EditInsert appended row Row (a new user, unassigned).
	EditInsert EditKind = iota + 1
	// EditRemove deleted row Row by moving the last row into it.
	EditRemove
	// EditSet replaced row Row's rates in place.
	EditSet
)

// RowEdit is one logged row edit. Rates is the row slice the edit
// installed (nil for a removal); the network keeps referencing it, so
// its contents are the row's current rates until the next edit of that
// row.
type RowEdit struct {
	Kind  EditKind
	Row   int
	Rates []float64
}

// RemoveRow deletes row i (a departed user) by moving the last row,
// key and all, into it, and logs the edit. An unkeyed network is keyed
// first (keyRows).
func (n *Network) RemoveRow(i int) {
	n.keyRows()
	last := len(n.WiFiRates) - 1
	n.WiFiRates[i], n.keys[i] = n.WiFiRates[last], n.keys[last]
	n.WiFiRates[last] = nil
	n.WiFiRates, n.keys = n.WiFiRates[:last], n.keys[:last]
	n.record(RowEdit{Kind: EditRemove, Row: i})
}

// AppendRow appends rates as a new last row (a new user, unassigned)
// with order key key, and logs the edit. The network keeps rates, not a
// copy; a caller that rewrites it later must call SetRow again. An
// unkeyed network is keyed first (keyRows), and keys must be distinct.
func (n *Network) AppendRow(key int, rates []float64) {
	n.keyRows()
	n.keys = append(n.keys, key)
	n.WiFiRates = append(n.WiFiRates, rates)
	n.record(RowEdit{Kind: EditInsert, Row: len(n.WiFiRates) - 1, Rates: rates})
}

// keyRows keys an unkeyed network, each row taking its index as key,
// the order it had. Its owner never had to report assignment edits
// (AssignmentEdited), so keying counts as one report.
func (n *Network) keyRows() {
	if n.keys != nil {
		return
	}
	n.keys = make([]int, len(n.WiFiRates))
	for i := range n.keys {
		n.keys[i] = i
	}
	n.assignEdits++
}

// SetRow installs rates as row i (fresh scan of an existing user) and
// logs the edit. As with AppendRow, the network keeps rates itself.
func (n *Network) SetRow(i int, rates []float64) {
	n.WiFiRates[i] = rates
	n.record(RowEdit{Kind: EditSet, Row: i, Rates: rates})
}

func (n *Network) record(e RowEdit) {
	if n.edits == nil {
		n.edits = new([editLogSize]RowEdit)
	}
	n.gen++
	n.edits[n.gen%editLogSize] = e
}

// Key returns row i's order key.
func (n *Network) Key(i int) int {
	if n.keys == nil {
		return i
	}
	return n.keys[i]
}

// KeyOrder returns the rows in ascending key order, in dst's storage,
// or nil when the rows already are in that order (an unkeyed network
// always is).
func (n *Network) KeyOrder(dst []int) []int {
	if slices.IsSorted(n.keys) {
		return nil
	}
	dst = dst[:0]
	for i := range n.keys {
		dst = append(dst, i)
	}
	slices.SortFunc(dst, func(a, b int) int { return cmp.Compare(n.keys[a], n.keys[b]) })
	return dst
}

// AssignmentEdited reports an edit of the owner's assignment that no
// evaluator made (an un-assign, a rollback). On a keyed network
// DeltaEval.Sync compares assignments only after such a report. An
// unkeyed network records nothing, since Sync always compares there and
// keying counts as a report (keyRows); so searches that share a
// read-only unkeyed network across goroutines do not write to it.
func (n *Network) AssignmentEdited() {
	if n.keys != nil {
		n.assignEdits++
	}
}

// Invalidate records a wholesale mutation of the network's rates or
// capacities (anything but a logged row edit). Every DeltaEval
// attached before the call will panic on its next probe instead of
// silently answering from stale accumulators, and no earlier row edit
// can be replayed; the owner must Attach (or Sync) again.
func (n *Network) Invalidate() {
	n.gen++
	n.floor = n.gen
}

// Generation returns the network's mutation counter: the value recorded
// by stateful evaluators (DeltaEval) and derived caches (the local-search
// neighborhood cache) at build time, compared on every use so state built
// against an older network revision is caught up or rebuilt instead of
// trusted.
func (n *Network) Generation() uint64 { return n.gen }

// Replayable reports whether state built at generation since can catch
// up with the network by replaying Edit(since+1) … Edit(Generation()):
// no Invalidate happened after since and every edit is still logged.
func (n *Network) Replayable(since uint64) bool {
	return since >= n.floor && n.gen-since <= editLogSize
}

// Edit returns the row edit that produced generation g. It is defined
// only for generations a Replayable check has vouched for.
func (n *Network) Edit(g uint64) RowEdit { return n.edits[g%editLogSize] }

// NumUsers returns |U|.
func (n *Network) NumUsers() int { return len(n.WiFiRates) }

// NumExtenders returns |A|.
func (n *Network) NumExtenders() int { return len(n.PLCCaps) }

// Validate checks structural consistency of the network.
func (n *Network) Validate() error {
	if n.NumExtenders() == 0 {
		return errors.New("model: network has no extenders")
	}
	for j, c := range n.PLCCaps {
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("model: extender %d has PLC capacity %v, want positive and finite", j, c)
		}
	}
	for i, row := range n.WiFiRates {
		if len(row) != n.NumExtenders() {
			return fmt.Errorf("model: user %d has %d rate entries, want %d",
				i, len(row), n.NumExtenders())
		}
	}
	return nil
}

// Assignment maps each user index to an extender index (or Unassigned).
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	return append(Assignment(nil), a...)
}

// NumAssigned returns the number of users with an extender.
func (a Assignment) NumAssigned() int {
	n := 0
	for _, j := range a {
		if j != Unassigned {
			n++
		}
	}
	return n
}

// Diff returns the number of users whose extender differs between a and b.
// Users appearing in only one assignment (longer slice) count as changed if
// assigned there.
func (a Assignment) Diff(b Assignment) int {
	changed := 0
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	for i := range short {
		if short[i] != long[i] {
			changed++
		}
	}
	for _, j := range long[len(short):] {
		if j != Unassigned {
			changed++
		}
	}
	return changed
}

// WiFiAggregate returns the throughput-fair aggregate WiFi throughput of a
// cell whose users have the given PHY rates (eq. 1):
//
//	T_WiFi = n / Σ_i (1/r_i)
//
// The aggregate is the harmonic mean of the user rates times the user
// count divided by n — i.e. n times the per-user share 1/Σ(1/r_i). Zero
// users yield zero. Non-positive rates yield zero (unusable cell).
func WiFiAggregate(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	var invSum float64
	for _, r := range rates {
		if r <= 0 {
			return 0
		}
		invSum += 1 / r
	}
	return float64(len(rates)) / invSum
}

// Options selects the PLC sharing behaviour during evaluation.
type Options struct {
	// Redistribute enables leftover-time water-filling: time unused by
	// extenders whose WiFi demand is below their fair share is handed to
	// extenders that can use it. This matches the measured behaviour of
	// commodity extenders (§III-B) and is on in all evaluation paths. With
	// it off, each active extender is capped at exactly c_j/A, matching
	// the conservative analytic model used inside the optimization
	// (constraint (4)).
	Redistribute bool
	// SkipValidate skips the per-call structural scan (Network.Validate
	// plus the per-user bounds/reachability loop). Invariant: the caller
	// must have validated this exact (network, assignment) pair once
	// already and mutated neither since — internal probe loops that
	// re-evaluate a validated pair many times set it to keep the hot
	// path pure arithmetic. With it set, behaviour on invalid input is
	// undefined.
	SkipValidate bool
	// Utility selects the objective family Result.Utility (and the
	// lexicographic Score used by probe-driven search) is computed
	// under. The zero value is sum-rate, where Utility is defined to be
	// bit-identical to Aggregate and no extra arithmetic runs. The
	// physical throughput model — PerUser, PerExtender, Aggregate — is
	// independent of the choice; only the scoring overlay changes.
	Utility Utility
}

// Result is the evaluated throughput of an assignment.
type Result struct {
	// PerUser[i] is user i's end-to-end throughput (0 if unassigned).
	PerUser []float64
	// PerExtender[j] is extender j's delivered end-to-end throughput.
	PerExtender []float64
	// WiFiDemand[j] is T_WiFi_j, the WiFi-side aggregate demand.
	WiFiDemand []float64
	// TimeShare[j] is the fraction of PLC medium time extender j uses.
	TimeShare []float64
	// Aggregate is the total end-to-end network throughput (objective 3).
	Aggregate float64
	// Utility is the assignment's value under Options.Utility: equal to
	// Aggregate (bit-identical) for the zero sum-rate utility,
	// Σ_cells n·u_α(perExt/n) for finite α, and the minimum
	// assigned-user throughput for max-min.
	Utility float64
	// ActiveExtenders is A, the number of extenders with at least one
	// associated user.
	ActiveExtenders int
}

// EvalScratch holds the reusable buffers of the evaluation inner loop:
// per-extender accumulators, the active-set index, the water-filling
// need/share/satisfied arrays, and the Result itself. The zero value is
// ready to use; buffers grow to the largest network seen and are
// retained. A scratch is not safe for concurrent use; give each worker
// goroutine its own.
type EvalScratch struct {
	// Evals counts the evaluations performed through this scratch since
	// the caller last reset it — the natural work metric of the
	// probe-heavy strategies (greedy, selfish, optimal, incremental).
	// The counter never influences results; it exists for per-solve
	// stats reporting.
	Evals int

	invSum    []float64 // Σ 1/r_ij per extender
	order     []int     // rows in key order (KeyOrder)
	count     []int     // users per extender
	active    []int     // extenders with >= 1 user
	need      []float64 // water-filling demand fractions
	shares    []float64
	satisfied []bool
	res       Result
}

// Evaluate computes the end-to-end throughputs of an assignment under the
// PLC+WiFi sharing model. It allocates a fresh Result per call; hot loops
// that evaluate many assignments should hold an EvalScratch and call
// EvaluateWith.
func Evaluate(n *Network, a Assignment, opts Options) (*Result, error) {
	return EvaluateWith(nil, n, a, opts)
}

// EvaluateWith is Evaluate with caller-provided scratch buffers. When s is
// non-nil the returned Result and its slices are owned by the scratch and
// are overwritten by the next EvaluateWith call on the same scratch —
// copy anything that must outlive it. A nil scratch behaves exactly like
// Evaluate.
func EvaluateWith(s *EvalScratch, n *Network, a Assignment, opts Options) (*Result, error) {
	if !opts.SkipValidate {
		if err := validateAssignment(n, a); err != nil {
			return nil, err
		}
	}
	numExt := n.NumExtenders()

	var local EvalScratch
	if s == nil {
		s = &local
	}
	s.Evals++
	res := &s.res
	res.PerUser = growZeroFloats(res.PerUser, n.NumUsers())
	res.PerExtender = growZeroFloats(res.PerExtender, numExt)
	res.WiFiDemand = growZeroFloats(res.WiFiDemand, numExt)
	res.TimeShare = growZeroFloats(res.TimeShare, numExt)
	res.Aggregate = 0
	res.Utility = 0
	res.ActiveExtenders = 0

	// Per-cell harmonic sums: validation above guarantees every assigned
	// rate is positive, so each cell's WiFi aggregate is count/Σ(1/r)
	// (eq. 1). Users accumulate in ascending key order, matching the
	// group-wise summation order exactly.
	invSum := growZeroFloats(s.invSum, numExt)
	s.invSum = invSum
	count := growZeroInts(s.count, numExt)
	s.count = count
	order := n.KeyOrder(s.order)
	if order != nil {
		s.order = order
	}
	for k := range a {
		i := k
		if order != nil {
			i = order[k]
		}
		j := a[i]
		if j == Unassigned {
			continue
		}
		invSum[j] += 1 / n.WiFiRates[i][j]
		count[j]++
	}
	active := s.active[:0]
	for j := 0; j < numExt; j++ {
		if count[j] > 0 {
			res.WiFiDemand[j] = float64(count[j]) / invSum[j]
			active = append(active, j)
		}
	}
	s.active = active
	res.ActiveExtenders = len(active)
	if len(active) == 0 {
		return res, nil
	}

	if opts.Redistribute {
		// Required time fraction to carry the full WiFi demand.
		need := growFloats(s.need, len(active))
		s.need = need
		for k, j := range active {
			need[k] = res.WiFiDemand[j] / n.PLCCaps[j]
		}
		shares := growFloats(s.shares, len(active))
		s.shares = shares
		satisfied := growBools(s.satisfied, len(active))
		s.satisfied = satisfied
		waterFillTimeInto(shares, satisfied, need)
		for k, j := range active {
			res.TimeShare[j] = shares[k]
			res.PerExtender[j] = minf(res.WiFiDemand[j], shares[k]*n.PLCCaps[j])
		}
	} else {
		fair := 1 / float64(len(active))
		for _, j := range active {
			res.TimeShare[j] = fair
			res.PerExtender[j] = minf(res.WiFiDemand[j], fair*n.PLCCaps[j])
		}
	}

	for i, j := range a {
		if j != Unassigned {
			res.PerUser[i] = res.PerExtender[j] / float64(count[j])
		}
	}
	for _, j := range active {
		res.Aggregate += res.PerExtender[j]
	}
	if opts.Utility.IsSumRate() {
		res.Utility = res.Aggregate
	} else {
		res.Utility = utilityOver(opts.Utility, active, res.PerExtender, count)
	}
	return res, nil
}

// validateAssignment is the structural scan EvaluateWith performs unless
// Options.SkipValidate is set: network consistency, assignment length,
// and per-user extender bounds and reachability.
func validateAssignment(n *Network, a Assignment) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if len(a) != n.NumUsers() {
		return fmt.Errorf("model: assignment covers %d users, network has %d",
			len(a), n.NumUsers())
	}
	numExt := n.NumExtenders()
	for i, j := range a {
		if j == Unassigned {
			continue
		}
		if j < 0 || j >= numExt {
			return fmt.Errorf("model: user %d assigned to invalid extender %d", i, j)
		}
		if !(n.WiFiRates[i][j] > 0) {
			return fmt.Errorf("model: user %d assigned to unreachable extender %d", i, j)
		}
	}
	return nil
}

// Aggregate is a convenience wrapper returning only the total throughput
// of an assignment; it returns 0 on evaluation errors.
func Aggregate(n *Network, a Assignment, opts Options) float64 {
	res, err := Evaluate(n, a, opts)
	if err != nil {
		return 0
	}
	return res.Aggregate
}

// waterFillTime allocates one unit of medium time max-min fairly across
// demands: each entry of need is the time fraction that flow wants; flows
// wanting less than the progressive fair share are satisfied exactly and
// their leftover is re-divided among the rest.
func waterFillTime(need []float64) []float64 {
	shares := make([]float64, len(need))
	satisfied := make([]bool, len(need))
	waterFillTimeInto(shares, satisfied, need)
	return shares
}

// waterFillTimeInto is waterFillTime writing into caller-provided shares
// and satisfied buffers (both len(need)); the evaluation hot path feeds it
// scratch buffers so the water-filling allocates nothing.
func waterFillTimeInto(shares []float64, satisfied []bool, need []float64) {
	for k := range satisfied {
		satisfied[k] = false
	}
	remainingTime := 1.0
	remainingFlows := len(need)
	for remainingFlows > 0 {
		fair := remainingTime / float64(remainingFlows)
		progressed := false
		for k := range need {
			if satisfied[k] {
				continue
			}
			if need[k] <= fair {
				shares[k] = need[k]
				satisfied[k] = true
				remainingTime -= need[k]
				remainingFlows--
				progressed = true
			}
		}
		if !progressed {
			// All remaining flows want more than the fair share:
			// split the rest equally.
			for k := range need {
				if !satisfied[k] {
					shares[k] = fair
				}
			}
			return
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// growFloats returns s resized to n, reallocating only when capacity is
// short; contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growZeroFloats returns s resized to n with every element zeroed.
func growZeroFloats(s []float64, n int) []float64 {
	s = growFloats(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growZeroInts(s []int, n int) []int {
	if cap(s) < n {
		s = make([]int, n)
		return s
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
