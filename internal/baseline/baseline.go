// Package baseline implements the association policies WOLT is compared
// against in the paper's evaluation (§V-B, §V-C):
//
//   - RSSI: every user associates with the extender offering the strongest
//     received signal, ignoring PLC backhaul quality and WiFi contention.
//     This is the default behaviour of commodity PLC-WiFi extenders.
//
//   - Greedy: a centralized online policy. Users arrive one at a time;
//     each new user is placed on the extender that maximizes the aggregate
//     end-to-end throughput given all earlier placements. Existing users
//     are never reassigned.
//
//   - Optimal: exhaustive search over all |A|^|U| associations (tractable
//     only at case-study scale); the gold standard for small instances.
//
//   - Random: uniformly random association, a sanity floor.
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/plcwifi/wolt/internal/model"
)

// RSSI associates each user with the extender of strongest signal.
// signal[i][j] is any monotone signal-quality metric (dBm RSSI in the
// experiments); entries for unreachable extenders (WiFiRates <= 0) are
// skipped so every user lands on an extender it can actually use.
func RSSI(n *model.Network, signal [][]float64) (model.Assignment, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(signal) != n.NumUsers() {
		return nil, fmt.Errorf("baseline: signal matrix covers %d users, network has %d",
			len(signal), n.NumUsers())
	}
	assign := make(model.Assignment, n.NumUsers())
	for i, row := range signal {
		if len(row) != n.NumExtenders() {
			return nil, fmt.Errorf("baseline: signal row %d has %d entries, want %d",
				i, len(row), n.NumExtenders())
		}
		assign[i] = Strongest(n.WiFiRates[i], row)
		if assign[i] == model.Unassigned {
			return nil, fmt.Errorf("baseline: user %d reaches no extender", i)
		}
	}
	return assign, nil
}

// Strongest is the one strongest-signal rule: it returns the extender
// with the highest signal among those the user reaches (rates[j] > 0),
// ties going to the lowest index, or model.Unassigned when none is
// reachable. A nil signal means the rates themselves; otherwise signal
// has one entry per rate.
func Strongest(rates, signal []float64) int {
	if signal == nil {
		signal = rates
	}
	best := model.Unassigned
	for j, r := range rates {
		if r > 0 && (best == model.Unassigned || signal[j] > signal[best]) {
			best = j
		}
	}
	return best
}

// RSSIByRate uses the WiFi PHY rate itself as the signal metric: with a
// monotone rate table, strongest-RSSI and highest-rate association
// coincide. Convenient when no explicit RSSI matrix is available.
func RSSIByRate(n *model.Network) (model.Assignment, error) {
	return RSSI(n, n.WiFiRates)
}

// Greedy places users one at a time in the given arrival order; each user
// picks the extender that maximizes the aggregate end-to-end throughput of
// the network so far (ties keep the lowest extender index). Users never
// move afterwards. If order is nil, users arrive in index order.
func Greedy(n *model.Network, order []int, opts model.Options) (model.Assignment, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if order == nil {
		order = make([]int, n.NumUsers())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n.NumUsers() {
		return nil, fmt.Errorf("baseline: order covers %d users, network has %d",
			len(order), n.NumUsers())
	}
	seen := make(map[int]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= n.NumUsers() || seen[i] {
			return nil, fmt.Errorf("baseline: order is not a permutation of users")
		}
		seen[i] = true
	}

	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		assign[i] = model.Unassigned
	}
	for _, i := range order {
		if _, err := GreedyAdd(n, assign, i, opts); err != nil {
			return nil, err
		}
	}
	return assign, nil
}

// Adder owns the delta-evaluation state of the online add baselines
// (GreedyAddWith / SelfishAddWith). Successive adds against the same
// evolving assignment reuse the attached state — the usual case, where
// the only change between calls is the extender the previous add itself
// committed — so a whole arrival sequence costs one full build plus
// O(Δ) probes per candidate instead of a full evaluation per candidate.
// The zero value is ready to use. An Adder is not safe for concurrent
// use; give each worker goroutine its own.
type Adder struct {
	delta model.DeltaEval
}

// ResetStats zeroes the evaluation counters.
func (ad *Adder) ResetStats() { ad.delta.Evals, ad.delta.Probes = 0, 0 }

// Stats returns the number of full evaluator builds (attaches) and
// single-move probes performed since the last ResetStats.
func (ad *Adder) Stats() (evals, probes int) { return ad.delta.Evals, ad.delta.Probes }

// ensure syncs the delta evaluator to (n, assign, opts), skipping the
// rebuild when the committed state already matches or can replay the
// network's row edits — bit-identical either way, by the DeltaEval
// contract.
func (ad *Adder) ensure(n *model.Network, assign model.Assignment, opts model.Options) error {
	return ad.delta.Sync(n, assign, opts)
}

// GreedyAdd places a single user into an existing partial assignment on
// the extender maximizing the resulting aggregate throughput, mutating
// assign, and returns the chosen extender. This is the online step used
// by the control plane when a user joins under the Greedy policy.
func GreedyAdd(n *model.Network, assign model.Assignment, user int, opts model.Options) (int, error) {
	return GreedyAddWith(nil, n, assign, user, opts)
}

// GreedyAddWith is GreedyAdd with an optional caller-owned Adder: the
// candidate search probes every reachable extender through the attached
// delta evaluator (one O(Δ) probe each, allocation-free, bit-identical
// aggregates to a full evaluation), and an Adder held across calls also
// amortizes the attach. A nil Adder behaves exactly like GreedyAdd.
func GreedyAddWith(ad *Adder, n *model.Network, assign model.Assignment, user int, opts model.Options) (int, error) {
	if user < 0 || user >= n.NumUsers() {
		return 0, fmt.Errorf("baseline: user %d out of range", user)
	}
	if ad == nil {
		ad = &Adder{}
	}
	if err := ad.ensure(n, assign, opts); err != nil {
		return 0, err
	}
	from := assign[user]
	best, bestAgg := model.Unassigned, math.Inf(-1)
	for j := 0; j < n.NumExtenders(); j++ {
		if n.WiFiRates[user][j] <= 0 {
			continue
		}
		if agg := ad.delta.ProbeMove(user, from, j); agg > bestAgg+1e-12 {
			best, bestAgg = j, agg
		}
	}
	if best == model.Unassigned {
		assign[user] = model.Unassigned
		return 0, fmt.Errorf("baseline: user %d reaches no extender", user)
	}
	ad.delta.Commit(user, from, best)
	assign[user] = best
	return best, nil
}

// Selfish places users one at a time in the given arrival order; each
// user picks the extender that maximizes its *own* end-to-end throughput
// given the users already present (the online greedy narrated in the
// paper's §III-B case study: "User 1 arrives and chooses extender 1 since
// this maximizes its own throughput"). Nobody ever moves afterwards. If
// order is nil, users arrive in index order.
//
// Selfish and Greedy coincide on the paper's Fig 3 example but diverge in
// general: a slow user maximizes its own share by joining the
// best-performing cell — exactly the cell it damages most through the
// 802.11 performance anomaly.
func Selfish(n *model.Network, order []int, opts model.Options) (model.Assignment, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if order == nil {
		order = make([]int, n.NumUsers())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n.NumUsers() {
		return nil, fmt.Errorf("baseline: order covers %d users, network has %d",
			len(order), n.NumUsers())
	}
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		assign[i] = model.Unassigned
	}
	for _, i := range order {
		if _, err := SelfishAdd(n, assign, i, opts); err != nil {
			return nil, err
		}
	}
	return assign, nil
}

// SelfishAdd places a single user on the extender maximizing that user's
// own resulting throughput, mutating assign, and returns the chosen
// extender.
func SelfishAdd(n *model.Network, assign model.Assignment, user int, opts model.Options) (int, error) {
	return SelfishAddWith(nil, n, assign, user, opts)
}

// SelfishAddWith is SelfishAdd with an optional caller-owned Adder; the
// candidate probes report the user's own hypothetical throughput
// bit-identically to a full evaluation. A nil Adder behaves exactly like
// SelfishAdd.
func SelfishAddWith(ad *Adder, n *model.Network, assign model.Assignment, user int, opts model.Options) (int, error) {
	if user < 0 || user >= n.NumUsers() {
		return 0, fmt.Errorf("baseline: user %d out of range", user)
	}
	if ad == nil {
		ad = &Adder{}
	}
	if err := ad.ensure(n, assign, opts); err != nil {
		return 0, err
	}
	from := assign[user]
	best, bestOwn := model.Unassigned, math.Inf(-1)
	for j := 0; j < n.NumExtenders(); j++ {
		if n.WiFiRates[user][j] <= 0 {
			continue
		}
		if _, own := ad.delta.ProbeMoveUser(user, from, j); own > bestOwn+1e-12 {
			best, bestOwn = j, own
		}
	}
	if best == model.Unassigned {
		assign[user] = model.Unassigned
		return 0, fmt.Errorf("baseline: user %d reaches no extender", user)
	}
	ad.delta.Commit(user, from, best)
	assign[user] = best
	return best, nil
}

// OptimalMaxStates caps the exhaustive search: |A|^|U| must not exceed
// this many evaluations.
const OptimalMaxStates = 50_000_000

// OptimalLimits bounds the instance sizes Optimal will attempt. The
// brute-force search is exponential, so even modest inputs can hang the
// process for hours; these guards turn that failure mode into a
// descriptive error instead. The zero value of any field means
// "use the default for that field".
type OptimalLimits struct {
	// MaxUsers caps |U|; the search visits up to |A|^|U| states.
	MaxUsers int
	// MaxExtenders caps |A|.
	MaxExtenders int
	// MaxStates caps the total evaluation count |A|^|U|.
	MaxStates float64
}

// DefaultOptimalLimits are the limits Optimal applies: generous enough
// for every case study in the paper (≤6 users, ≤3 extenders) with head
// room, but far below anything that would stall a solve.
var DefaultOptimalLimits = OptimalLimits{
	MaxUsers:     16,
	MaxExtenders: 16,
	MaxStates:    OptimalMaxStates,
}

// withDefaults fills zero fields from DefaultOptimalLimits.
func (l OptimalLimits) withDefaults() OptimalLimits {
	if l.MaxUsers <= 0 {
		l.MaxUsers = DefaultOptimalLimits.MaxUsers
	}
	if l.MaxExtenders <= 0 {
		l.MaxExtenders = DefaultOptimalLimits.MaxExtenders
	}
	if l.MaxStates <= 0 {
		l.MaxStates = DefaultOptimalLimits.MaxStates
	}
	return l
}

// Optimal exhaustively searches all associations and returns the best
// assignment and its aggregate throughput. It errors out with a
// descriptive message when the instance exceeds DefaultOptimalLimits;
// use OptimalBounded to supply custom limits.
func Optimal(n *model.Network, opts model.Options) (model.Assignment, float64, error) {
	return OptimalBounded(n, opts, DefaultOptimalLimits)
}

// OptimalBounded is Optimal with caller-chosen instance-size limits.
// Zero limit fields fall back to DefaultOptimalLimits.
func OptimalBounded(n *model.Network, opts model.Options, limits OptimalLimits) (model.Assignment, float64, error) {
	return OptimalBoundedWith(nil, n, opts, limits)
}

// Searcher carries the exhaustive search's delta evaluator across
// solves, so repeated OptimalBoundedWith calls reuse its buffers. The
// zero value is ready to use.
type Searcher struct {
	delta model.DeltaEval
}

// ResetStats zeroes the evaluation counters.
func (se *Searcher) ResetStats() { se.delta.Evals, se.delta.Probes = 0, 0 }

// Stats returns the number of full evaluator builds (attaches) and
// single-move probes performed since the last ResetStats.
func (se *Searcher) Stats() (evals, probes int) { return se.delta.Evals, se.delta.Probes }

// OptimalBoundedWith is OptimalBounded with an optional Searcher whose
// delta evaluator is reused across every state of the exhaustive
// search: the DFS commits one user per level and scores each leaf with
// a single O(Δ) probe, so a leaf costs O(cell + active) instead of a
// full evaluation — with aggregates bit-identical to the full
// evaluator, the search visits the same states and returns the same
// assignment. A nil searcher behaves exactly like OptimalBounded.
func OptimalBoundedWith(se *Searcher, n *model.Network, opts model.Options, limits OptimalLimits) (model.Assignment, float64, error) {
	if err := n.Validate(); err != nil {
		return nil, 0, err
	}
	limits = limits.withDefaults()
	if u := n.NumUsers(); u > limits.MaxUsers {
		return nil, 0, fmt.Errorf("baseline: optimal search over %d users exceeds the %d-user bound (the search is |A|^|U|; use OptimalBounded to raise it deliberately)",
			u, limits.MaxUsers)
	}
	if a := n.NumExtenders(); a > limits.MaxExtenders {
		return nil, 0, fmt.Errorf("baseline: optimal search over %d extenders exceeds the %d-extender bound (the search is |A|^|U|; use OptimalBounded to raise it deliberately)",
			a, limits.MaxExtenders)
	}
	states := math.Pow(float64(n.NumExtenders()), float64(n.NumUsers()))
	if states > limits.MaxStates {
		return nil, 0, fmt.Errorf("baseline: %d^%d states exceed the brute-force budget of %.0f evaluations",
			n.NumExtenders(), n.NumUsers(), limits.MaxStates)
	}
	numUsers := n.NumUsers()
	if se == nil {
		se = &Searcher{}
	}
	d := &se.delta
	assign := make(model.Assignment, numUsers)
	for i := range assign {
		assign[i] = model.Unassigned
	}
	if err := d.Attach(n, assign, opts); err != nil {
		return nil, 0, err
	}
	if numUsers == 0 {
		return assign, d.Aggregate(), nil
	}
	best := make(model.Assignment, numUsers)
	bestAgg := math.Inf(-1)
	// The DFS keeps the evaluator committed to the current prefix: each
	// inner level commits a placement before recursing and reverts it
	// after, and the last level scores every candidate with one probe —
	// the same enumeration order and the same (bit-identical) aggregates
	// as evaluating every complete assignment from scratch, so the best
	// state found is exactly the one the full-evaluation search returns.
	var rec func(i int)
	rec = func(i int) {
		if i == numUsers-1 {
			for j := 0; j < n.NumExtenders(); j++ {
				if n.WiFiRates[i][j] <= 0 {
					continue
				}
				if agg := d.ProbeMove(i, model.Unassigned, j); agg > bestAgg {
					bestAgg = agg
					assign[i] = j
					copy(best, assign)
					assign[i] = model.Unassigned
				}
			}
			return
		}
		for j := 0; j < n.NumExtenders(); j++ {
			if n.WiFiRates[i][j] <= 0 {
				continue
			}
			d.Commit(i, model.Unassigned, j)
			assign[i] = j
			rec(i + 1)
			d.Commit(i, j, model.Unassigned)
			assign[i] = model.Unassigned
		}
	}
	rec(0)
	if math.IsInf(bestAgg, -1) {
		return nil, 0, fmt.Errorf("baseline: no feasible association")
	}
	return best, bestAgg, nil
}

// Random associates every user with a uniformly random reachable extender.
func Random(n *model.Network, rng *rand.Rand) (model.Assignment, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		var reachable []int
		for j, r := range n.WiFiRates[i] {
			if r > 0 {
				reachable = append(reachable, j)
			}
		}
		if len(reachable) == 0 {
			return nil, fmt.Errorf("baseline: user %d reaches no extender", i)
		}
		assign[i] = reachable[rng.Intn(len(reachable))]
	}
	return assign, nil
}
