package control

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// Common controller policies. Policies are strategy-registry names,
// validated at NewEngine/NewServer time, so any registry name works;
// PolicyRSSI additionally uses the agents' reported RSSI values (the
// registry's rates-based "rssi" strategy never sees them).
const (
	PolicyWOLT   = "wolt"
	PolicyGreedy = "greedy"
	PolicyRSSI   = "rssi"
)

// EngineConfig configures a policy engine.
type EngineConfig struct {
	// PLCCaps are the offline-estimated PLC isolation capacities c_j,
	// indexed by GLOBAL extender ID (§V-A: measured by saturating each
	// link). Every scan report the engine sees is this wide.
	PLCCaps []float64
	// Owned restricts the engine to a subset of global extender IDs (a
	// shard member's share of the consistent-hash ring). The engine only
	// ever assigns users to owned extenders; directives still carry
	// global IDs. Empty means the engine owns every extender.
	Owned []int
	// Policy is the association policy: a strategy-registry name
	// (default PolicyWOLT). The name is validated against the registry
	// at construction, so the control plane cannot drift from
	// internal/strategy.
	Policy string
	// ModelOpts selects the evaluation model used by evaluation-driven
	// policies (greedy, selfish, wolt-incremental, local search).
	ModelOpts model.Options
	// Workers bounds WOLT's intra-solve Phase II parallelism; results
	// are bit-identical for every value (DESIGN.md §7).
	Workers int
	// Seed derives the policy instance's private randomness (e.g. the
	// random baseline's draws).
	Seed int64
	// Budget bounds budget-aware policies per operation: a probe budget
	// makes the local-search family's per-join/leave re-solve an
	// O(budget) warm repair; wolt-incremental takes only Budget.Moves
	// (NewEngine rejects more). Zero is unlimited (DESIGN.md §11).
	Budget strategy.Budget
	// ReassignOnLeave lets reassigning policies re-solve when a user
	// departs, returning rebalancing directives from Leave. The paper's
	// CC only recomputes on joins — departures free capacity silently —
	// so this is off by default; it exists for the anytime policies,
	// whose leave-time repair costs microseconds, not a full solve.
	ReassignOnLeave bool
	// PlacementOnlyJoins routes joins through the policy's online form
	// (strategy.Online.Add) when it has one: the arriving user is placed
	// on its best candidate extender and nobody else moves — the
	// engine-level encoding of the §11 anytime contract's
	// Budget.Moves < 0 ("arrivals are free, re-associations forbidden").
	// Setting Budget.Moves < 0 directly implies it. At city scale this
	// turns each join from a budgeted hill-climb repair (its whole probe
	// budget, plus a compare of the member's assignment with its
	// directed column) into an O(M) candidate probe, and emits
	// exactly one directive per join.
	// Updates and leave-time repairs still use the configured budget's
	// full re-solve path. Policies without an online form fall back to
	// their re-solve form unchanged.
	PlacementOnlyJoins bool
	// FullResolveEvery, under PlacementOnlyJoins, runs the full
	// recompute path on every Nth join anyway (counting from the first),
	// so placement drift is periodically repaired by a real re-solve
	// under the configured Budget. Zero never forces one — the periodic
	// repair is an explicit knob, not a default.
	FullResolveEvery int
}

// Engine is the transport-free policy/state core of a central
// controller: it owns the user table, applies the configured association
// strategy on joins and scan updates, and reports the directives each
// operation produced. The TCP Server, the in-process tests and the
// internal/shard members all drive the same Engine; none of them carry
// policy logic of their own.
//
// The user table is a flat slice of stable row slots with pooled
// per-row buffers, and an index from user ID to slot: a join appends a
// slot, a leave moves the last slot into the freed one, and the
// departed user's rate vectors park at the slice tail for the next
// arrival to reuse. A row keeps only the owned-width projection of the
// user's scan: a shard member owning k of the deployment's extenders
// stores k rates per user, however wide the reports it is sent. The
// model.Network the strategy sees and the working assignment are kept
// in lockstep with the table: a join, leave or update is one logged row
// edit (Network.AppendRow, RemoveRow, SetRow) plus the matching edit of
// the assignment, and a failed operation makes the inverse edit. The
// network is keyed by user ID, so every sum, visit order and tie-break
// follows user ID, not slot order, and the strategy's evaluator and
// caches replay each edit in O(cell) or O(extenders): neither a join
// nor a leave does work that grows with the table
// (BenchmarkEngineJoinLeaveScaling). A Reassign, which may move anyone,
// edits the assignment in place; its directives, in ascending user ID,
// come from the rows it reports writing (rowWriter), or from
// a compare of every row. The steady-state per-event path
// (join, update, leave under an anytime policy) performs O(1)
// allocations regardless of table size — the discipline the
// million-user city harness depends on (DESIGN.md §12).
//
// All methods are safe for concurrent use; each operation runs under the
// engine's lock (strategy instances are not safe for concurrent solves).
type Engine struct {
	cfg    EngineConfig
	policy string
	// owned lists the global extender IDs this engine may assign, in
	// increasing order: local extender l is global owned[l].
	owned []int
	// strategy is the policy instance (nil for PolicyRSSI, which places
	// users by their reported signal instead). Only used under mu.
	strategy strategy.Strategy
	// placementJoins routes joins through the online placement form
	// (EngineConfig.PlacementOnlyJoins, or Budget.Moves < 0).
	placementJoins bool

	mu sync.Mutex
	// rows is the user table, one slot per user in no particular order,
	// and index finds each user's row. Rows beyond len(rows) (up to cap)
	// hold pooled buffers from departed users.
	rows           []userRow
	index          rowIndex
	joins          int
	leaves         int
	reassociations int
	// droppedReassigns counts departures under ReassignOnLeave whose
	// re-solve failed: the departure stands, but the rebalancing the
	// operator asked for was silently impossible. Surfaced via Stats so
	// a misconfigured policy cannot hide behind successful leaves.
	droppedReassigns int

	// net and assign are the member's view the strategy works on, row
	// for row in lockstep with rows: net's rows alias the table's
	// owned-width rate buffers, keyed by user ID, and assign holds each
	// row's local extender index. Every table edit is the matching
	// logged row edit of net, and every other edit of assign is reported
	// to net (Network.AssignmentEdited).
	net    model.Network
	assign model.Assignment
	// directed is each row's last directed association (local extender
	// index, model.Unassigned before the first directive), in lockstep
	// with rows: the rows whose assign differs from directed are exactly
	// the ones that need a directive.
	directed []int
	// dirs collects an operation's directives before the returned copy.
	dirs []Directive
	// prevRates/prevRSSI snapshot a row's owned-width report across
	// Update so a failed re-solve can restore it atomically.
	prevRates, prevRSSI []float64
}

// userRow is one user's slot in the flat table (its ID is the row's
// network key). It stores only the owned-width projection of the user's
// scan report: entry l is the report's value for global extender
// owned[l], the rates of the extenders this engine assigns, and the
// network row aliases rates. The slices keep their capacity across
// occupants.
type userRow struct {
	rates []float64 // owned width
	rssi  []float64 // owned width, or empty when the report had none
}

// Directive is one association order produced by an engine operation:
// user UserID moves to (global) extender Extender. The transport layer
// forwards directives to agents as MsgAssociate messages.
type Directive struct {
	UserID        int
	Extender      int
	Reassociation bool
}

// NewEngine builds a policy engine. The policy name is validated against
// the strategy registry; unknown names fail here, not at first join.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if len(cfg.PLCCaps) == 0 {
		return nil, errors.New("control: no PLC capacities configured")
	}
	for j, c := range cfg.PLCCaps {
		if !(c > 0) || math.IsInf(c, 1) {
			return nil, fmt.Errorf("control: extender %d has capacity %v, want positive and finite", j, c)
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyWOLT
	}
	// Every policy name — including "rssi" — must exist in the registry:
	// the registry is the single catalogue of association policies, and
	// validating here keeps the control plane from drifting from it.
	st, err := strategy.New(cfg.Policy, strategy.Config{
		ModelOpts: cfg.ModelOpts,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		Budget:    cfg.Budget,
	})
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	if cfg.Policy == PolicyRSSI {
		// The controller's RSSI policy places users by their REPORTED
		// signal strengths; the registry's rates-based instance is only
		// used to validate the name.
		st = nil
	}

	e := &Engine{
		cfg:            cfg,
		policy:         cfg.Policy,
		strategy:       st,
		placementJoins: cfg.PlacementOnlyJoins || cfg.Budget.Moves < 0,
	}
	if err := e.resolveOwned(cfg.Owned); err != nil {
		return nil, err
	}
	e.net.PLCCaps = make([]float64, len(e.owned))
	for l, g := range e.owned {
		e.net.PLCCaps[l] = cfg.PLCCaps[g]
	}
	return e, nil
}

// resolveOwned normalizes the owned-extender subset (sorted, unique,
// in range).
func (e *Engine) resolveOwned(owned []int) error {
	numExt := len(e.cfg.PLCCaps)
	if len(owned) == 0 {
		e.owned = make([]int, numExt)
		for j := range e.owned {
			e.owned[j] = j
		}
	} else {
		e.owned = append([]int(nil), owned...)
		sort.Ints(e.owned)
	}
	for l, g := range e.owned {
		if g < 0 || g >= numExt {
			return fmt.Errorf("control: owned extender %d out of range [0,%d)", g, numExt)
		}
		if l > 0 && e.owned[l-1] == g {
			return fmt.Errorf("control: extender %d owned twice", g)
		}
	}
	return nil
}

// validateScan checks a scan report's shape, that every entry is finite,
// and that the user reaches at least one extender this engine owns.
func (e *Engine) validateScan(userID int, rates, rssi []float64) error {
	numExt := len(e.cfg.PLCCaps)
	if len(rates) != numExt {
		return fmt.Errorf("scan report has %d rates, controller manages %d extenders",
			len(rates), numExt)
	}
	if len(rssi) != 0 && len(rssi) != numExt {
		return fmt.Errorf("scan report has %d RSSI entries, want %d", len(rssi), numExt)
	}
	for j, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("scan report has non-finite rate %v for extender %d", r, j)
		}
	}
	for j, s := range rssi {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("scan report has non-finite RSSI %v for extender %d", s, j)
		}
	}
	for _, g := range e.owned {
		if rates[g] > 0 {
			return nil
		}
	}
	if len(e.owned) == numExt {
		return fmt.Errorf("user %d reaches no extender", userID)
	}
	return fmt.Errorf("user %d reaches no extender owned by this shard", userID)
}

// setReport gathers the owned entries of a global-width scan report
// into a row's pooled buffers.
func (e *Engine) setReport(r *userRow, rates, rssi []float64) {
	r.rates = r.rates[:0]
	for _, g := range e.owned {
		r.rates = append(r.rates, rates[g])
	}
	r.rssi = r.rssi[:0]
	if len(rssi) > 0 {
		for _, g := range e.owned {
			r.rssi = append(r.rssi, rssi[g])
		}
	}
}

// appendRow opens a slot at the end of the table for a new user,
// reusing the pooled buffers parked there, stores its scan report and
// returns the slot. The network, the assignment and the directed column
// gain the matching row, unassigned.
func (e *Engine) appendRow(userID int, rates, rssi []float64) int {
	pos := len(e.rows)
	if cap(e.rows) > pos {
		e.rows = e.rows[:pos+1]
	} else {
		e.rows = append(e.rows, userRow{})
	}
	r := &e.rows[pos]
	e.setReport(r, rates, rssi)
	e.net.AppendRow(userID, r.rates)
	e.index.add(&e.net, pos)
	e.assign = append(e.assign, model.Unassigned)
	e.directed = append(e.directed, model.Unassigned)
	return pos
}

// removeRow closes the slot pos by moving the last slot into it, parks
// the departed user's buffers at the tail, and makes the matching
// network, assignment and directed edit.
func (e *Engine) removeRow(pos int) {
	last := len(e.rows) - 1
	e.index.remove(&e.net, pos, last)
	e.rows[pos], e.rows[last] = e.rows[last], e.rows[pos]
	e.rows = e.rows[:last]
	e.net.RemoveRow(pos)
	e.assign[pos], e.directed[pos] = e.assign[last], e.directed[last]
	e.assign, e.directed = e.assign[:last], e.directed[:last]
}

// setRow stores a fresh scan report in row pos and logs it as the
// network's row edit.
func (e *Engine) setRow(pos int, rates, rssi []float64) {
	r := &e.rows[pos]
	e.setReport(r, rates, rssi)
	e.net.SetRow(pos, r.rates)
}

// Join admits a user with its scan report, runs the policy and returns
// the directives it produced (always including one for the new user on
// success). A failed join leaves the engine unchanged.
func (e *Engine) Join(userID int, rates, rssi []float64) ([]Directive, error) {
	if err := e.validateScan(userID, rates, rssi); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, pos := e.index.find(&e.net, userID); pos >= 0 {
		return nil, fmt.Errorf("user %d already joined", userID)
	}
	pos := e.appendRow(userID, rates, rssi)
	e.joins++
	// Placement-only joins skip the full re-solve unless this is a
	// scheduled periodic repair (FullResolveEvery counts joins from 1).
	placementOnly := e.placementJoins &&
		!(e.cfg.FullResolveEvery > 0 && e.joins%e.cfg.FullResolveEvery == 0)
	dirs, err := e.solveLocked(pos, placementOnly)
	if err != nil {
		e.removeRow(pos)
		e.joins--
		return nil, err
	}
	return dirs, nil
}

// Update refreshes an associated user's scan report and lets the policy
// react: WOLT recomputes the full association (it may move anyone), RSSI
// re-places just the reporting user (client roaming), and arrival-only
// strategies (greedy, selfish, random) never reassign — the refreshed
// report only affects placements of future arrivals.
//
// A report that no longer reaches the user's current extender (the user
// roamed out of its cell) unassigns the user before the policy runs: a
// reassigning policy's free placement pass re-places it, and an
// arrival-only policy places just that user through its online form.
// Either way the user gets a reassociation directive to an extender its
// new scan reaches.
//
// Update is atomic: when the policy's re-solve fails, the prior scan
// report and assignment are restored, so the engine never holds fresh
// rates with a stale assignment (the failure mode Join already rolled
// back cleanly).
func (e *Engine) Update(userID int, rates, rssi []float64) ([]Directive, error) {
	if err := e.validateScan(userID, rates, rssi); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, pos := e.index.find(&e.net, userID)
	if pos < 0 {
		return nil, fmt.Errorf("user %d not joined", userID)
	}
	prev := e.assign[pos]
	// The roaming check reads the report before any policy edit: a
	// user on an extender the new scan does not reach must be re-placed
	// whatever the policy.
	roamed := prev != model.Unassigned && rates[e.owned[prev]] <= 0
	recompute := roamed
	if e.policy == PolicyRSSI {
		// Client roaming: re-place just the reporting user.
		recompute = true
	} else if _, ok := e.strategy.(strategy.Reassigner); ok {
		// Recomputing strategies (the WOLT variants) may move anyone.
		recompute = true
	}
	if !recompute {
		e.setRow(pos, rates, rssi)
		return nil, nil
	}
	r := &e.rows[pos]
	e.prevRates = append(e.prevRates[:0], r.rates...)
	e.prevRSSI = append(e.prevRSSI[:0], r.rssi...)
	e.setRow(pos, rates, rssi)
	if roamed {
		e.assign[pos] = model.Unassigned
		e.net.AssignmentEdited()
	}
	dirs, err := e.solveLocked(pos, false)
	if err != nil {
		r.rates = append(r.rates[:0], e.prevRates...)
		r.rssi = append(r.rssi[:0], e.prevRSSI...)
		e.net.SetRow(pos, r.rates)
		e.assign[pos] = prev
		e.net.AssignmentEdited()
		return nil, err
	}
	return dirs, nil
}

// Leave removes a user (explicit leave or dropped connection) and
// reports whether it was present. The paper's CC recomputes on joins
// (directives accompany new associations) and departures simply free
// capacity — unless EngineConfig.ReassignOnLeave is set and the policy
// can reassign, in which case the departure triggers a re-solve (an
// anytime warm repair under EngineConfig.Budget) and the rebalancing
// directives are returned. A failed re-solve must not resurrect the
// user: the departure stands, and the dropped rebalance is counted in
// Stats.DroppedReassigns.
func (e *Engine) Leave(userID int) ([]Directive, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, pos := e.index.find(&e.net, userID)
	if pos < 0 {
		return nil, false
	}
	e.removeRow(pos)
	e.leaves++
	if e.cfg.ReassignOnLeave && len(e.rows) > 0 {
		if _, ok := e.strategy.(strategy.Reassigner); ok {
			// solveLocked tolerates the no-new-user form (-1) only on
			// the Reassigner path, which never dereferences the row.
			dirs, err := e.solveLocked(-1, false)
			if err == nil {
				return dirs, true
			}
			e.droppedReassigns++
		}
	}
	return nil, true
}

// Extender returns the user's current global extender assignment.
func (e *Engine) Extender(userID int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, pos := e.index.find(&e.net, userID)
	if pos < 0 {
		return model.Unassigned, false
	}
	return e.globalOf(e.directed[pos]), true
}

// Stats returns the engine's counters and current assignment (global
// extender IDs).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	assignment := make(map[int]int, len(e.rows))
	for i := range e.rows {
		assignment[e.net.Key(i)] = e.globalOf(e.directed[i])
	}
	return Stats{
		Policy:           e.policy,
		Users:            len(e.rows),
		Joins:            e.joins,
		Leaves:           e.leaves,
		Reassociations:   e.reassociations,
		DroppedReassigns: e.droppedReassigns,
		Assignment:       assignment,
	}
}

// StatsLite returns the engine's counters without materializing the
// assignment map — Stats.Assignment is nil. At city scale the full map
// copy is an O(n) allocation per poll; callers that only want counters
// (the sharded coordinator's merged stats, progress reporting) use this
// form.
func (e *Engine) StatsLite() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Policy:           e.policy,
		Users:            len(e.rows),
		Joins:            e.joins,
		Leaves:           e.leaves,
		Reassociations:   e.reassociations,
		DroppedReassigns: e.droppedReassigns,
	}
}

// solveLocked runs the policy after the user at row row joined or
// reported fresh rates, updates the user table and returns the resulting
// directives. row may be -1 (a departure under ReassignOnLeave) only
// when the policy is a Reassigner, which never dereferences the row.
// placementOnly asks applyStrategy for the online placement form instead
// of the full re-solve when the policy has one (join path under
// PlacementOnlyJoins). Callers hold e.mu and have already made the
// operation's row edit, so net and assign are current.
//
// A placement changes only row row, so it emits at most that row's
// directive; a Reassign, which may move anyone, also emits for the rows
// it wrote (emit). Steady state this path allocates only the returned
// directive slice.
func (e *Engine) solveLocked(row int, placementOnly bool) ([]Directive, error) {
	if e.policy == PolicyRSSI {
		// Signal-strength placement touches only the reporting user; no
		// strategy call.
		e.assign[row] = e.strongest(&e.rows[row])
		return e.emit(row, false), nil
	}
	placed, err := e.applyStrategy(row, placementOnly)
	if err != nil {
		return nil, err
	}
	return e.emit(row, !placed), nil
}

// strongest returns the local index of the owned extender with the
// strongest reported signal (the rate when no RSSI was reported) that
// the user reaches.
func (e *Engine) strongest(u *userRow) int {
	best, bestSig := model.Unassigned, -1e18
	for l, r := range u.rates {
		if r <= 0 {
			continue
		}
		sig := r
		if len(u.rssi) == len(u.rates) {
			sig = u.rssi[l]
		}
		if sig > bestSig {
			best, bestSig = l, sig
		}
	}
	return best
}

// rowWriter is a policy whose Reassign reports the rows of prev it
// wrote (with repeats; none when it failed).
type rowWriter interface{ Written() []int }

// emit folds an operation's changes to the working assignment into the
// directed column and returns their directives in ascending user ID —
// one allocation, sized to the change set. It compares the operation's
// own row (-1 for none) and, after a Reassign, the rows the policy
// reports writing (rowWriter) or else every row; a row listed twice is
// directed once.
func (e *Engine) emit(row int, reassigned bool) []Directive {
	e.dirs = e.dirs[:0]
	if row >= 0 {
		e.emitInto(row)
	}
	if w, ok := e.strategy.(rowWriter); reassigned && ok {
		for _, i := range w.Written() {
			e.emitInto(i)
		}
	} else if reassigned {
		for i := range e.assign {
			e.emitInto(i)
		}
	}
	if len(e.dirs) == 0 {
		return nil
	}
	slices.SortFunc(e.dirs, func(a, b Directive) int { return cmp.Compare(a.UserID, b.UserID) })
	return slices.Clone(e.dirs)
}

// emitInto appends row i's directive to dirs, if the row changed.
func (e *Engine) emitInto(i int) {
	if e.assign[i] != e.directed[i] {
		e.dirs = append(e.dirs, e.direct(i))
	}
}

// direct records row i's move to its working assignment and returns its
// directive.
func (e *Engine) direct(i int) Directive {
	reassoc := e.directed[i] != model.Unassigned
	e.directed[i] = e.assign[i]
	if reassoc {
		e.reassociations++
	}
	return Directive{UserID: e.net.Key(i), Extender: e.globalOf(e.assign[i]), Reassociation: reassoc}
}

// globalOf maps a local extender index to its global ID
// (model.Unassigned passes through).
func (e *Engine) globalOf(local int) int {
	if local == model.Unassigned {
		return model.Unassigned
	}
	return e.owned[local]
}

// applyStrategy runs the configured strategy after row joined (or
// reported fresh rates): recomputing strategies may move anyone, online
// strategies place just the new user, and offline-only strategies (the
// exhaustive "optimal") are rejected with a typed error wrapping
// strategy.ErrNoOnlineForm — the controller never silently falls back
// to a different policy than the one configured.
//
// With placementOnly set the preference inverts: a policy with an online
// form places just the arriving user (O(budget) probes, no full sweep),
// falling back to its re-solve form only when it has no online one. The
// placement repair honours the §11 anytime contract — it is exactly what
// Budget.Moves < 0 buys on the solver side, surfaced here as the join
// fast path.
//
// Both forms edit e.assign in place (and leave it untouched on error);
// placed reports the placement form, which changed only row row.
func (e *Engine) applyStrategy(row int, placementOnly bool) (placed bool, err error) {
	on, online := e.strategy.(strategy.Online)
	re, reassigner := e.strategy.(strategy.Reassigner)
	if online && row >= 0 && (placementOnly || !reassigner) {
		_, err := on.Add(&e.net, e.assign, row)
		return true, err
	}
	if reassigner {
		_, err := re.Reassign(&e.net, e.assign)
		return false, err
	}
	return false, fmt.Errorf("control: policy %q cannot place an arriving user: %w",
		e.policy, strategy.ErrNoOnlineForm)
}

// rowIndex finds a user's row by ID: an open-addressing table of row+1
// (0 marks an empty bucket) with linear probing, at most half full. A
// bucket's user ID is its row's network key, so a bucket holds 4 bytes
// where a map would hold the ID and the row.
type rowIndex struct{ b []int32 }

// home is id's first bucket in a table of mask+1 buckets.
func home(id, mask int) int { return int(uint64(id)*0x9e3779b97f4a7c15>>32) & mask }

// find returns the bucket holding user id and its row, or the empty
// bucket where id would go and -1.
func (x *rowIndex) find(n *model.Network, id int) (int, int) {
	if len(x.b) == 0 {
		return 0, -1
	}
	mask := len(x.b) - 1
	for h := home(id, mask); ; h = (h + 1) & mask {
		if r := int(x.b[h]) - 1; r < 0 || n.Key(r) == id {
			return h, r
		}
	}
}

// add indexes row, the network's last, doubling the table (and placing
// every row afresh) when it would pass half full.
func (x *rowIndex) add(n *model.Network, row int) {
	if 2*(row+1) > len(x.b) {
		x.b = make([]int32, max(16, 2*len(x.b)))
		for r := 0; r < row; r++ {
			h, _ := x.find(n, n.Key(r))
			x.b[h] = int32(r + 1)
		}
	}
	h, _ := x.find(n, n.Key(row))
	x.b[h] = int32(row + 1)
}

// remove drops row from the table and renames the entry of last, which
// the table edit that follows moves into row. Emptying a bucket moves
// each later entry of its probe run back into the hole when the hole
// lies on that entry's path from its home bucket.
func (x *rowIndex) remove(n *model.Network, row, last int) {
	mask := len(x.b) - 1
	h, _ := x.find(n, n.Key(row))
	for j := (h + 1) & mask; x.b[j] != 0; j = (j + 1) & mask {
		if (j-home(n.Key(int(x.b[j])-1), mask))&mask >= (j-h)&mask {
			x.b[h], h = x.b[j], j
		}
	}
	x.b[h] = 0
	if row != last {
		h, _ = x.find(n, n.Key(last))
		x.b[h] = int32(row + 1)
	}
}
