package strategy

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/plcwifi/wolt/internal/baseline"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

func init() {
	Register("rssi", func(cfg Config) Strategy { return &rssiStrategy{cfg: cfg} })
	Register("greedy", func(cfg Config) Strategy { return &addStrategy{cfg: cfg, name: "greedy", add: baseline.GreedyAddWith} })
	Register("selfish", func(cfg Config) Strategy {
		return &addStrategy{cfg: cfg, name: "selfish", add: baseline.SelfishAddWith}
	})
	Register("optimal", func(cfg Config) Strategy { return &optimalStrategy{cfg: cfg} })
	Register("random", func(cfg Config) Strategy {
		return &randomStrategy{cfg: cfg, rng: seed.Rand(cfg.Seed, seed.StrategyRand, 0)}
	})
}

// baselineStats is the Stats record of a single-phase strategy.
func baselineStats(name string, n *model.Network, total time.Duration, evals, probes int) Stats {
	return Stats{
		Strategy:    name,
		Users:       n.NumUsers(),
		Extenders:   n.NumExtenders(),
		Total:       total,
		Evaluations: evals,
		DeltaProbes: probes,
	}
}

// rssiStrategy models commodity strongest-signal association using the
// WiFi PHY rate as the (monotone) signal metric. Reassign re-places
// every user — per-tick client roaming.
type rssiStrategy struct {
	cfg Config
}

// Name implements Strategy.
func (r *rssiStrategy) Name() string { return "rssi" }

// Solve implements Strategy.
func (r *rssiStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	assign, err := baseline.RSSIByRate(n)
	if err != nil {
		return nil, err
	}
	r.cfg.emit(baselineStats("rssi", n, time.Since(start), 0, 0))
	return assign, nil
}

// Add implements Online: the arriving user picks its highest-rate
// reachable extender, ignoring everyone else.
func (r *rssiStrategy) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	if user < 0 || user >= n.NumUsers() {
		return 0, fmt.Errorf("strategy: user %d out of range", user)
	}
	best := baseline.Strongest(n.WiFiRates[user], nil)
	if best == model.Unassigned {
		return 0, fmt.Errorf("strategy: user %d reaches no extender", user)
	}
	assign[user] = best
	return best, nil
}

// Reassign implements Reassigner: every user roams to its currently
// strongest extender, regardless of the previous association, which it
// overwrites.
func (r *rssiStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	next, err := r.Solve(n)
	if err != nil {
		return nil, err
	}
	return adopt(prev, next)
}

// addStrategy covers the two arrival-order baselines (greedy and
// selfish): Solve replays an index-order arrival sequence through the
// online step, and Add is that step directly. The shared Adder keeps a
// delta evaluator attached across the arrival sequence, so candidates
// are scored by allocation-free O(Δ) probes instead of full
// evaluations.
type addStrategy struct {
	cfg   Config
	name  string
	add   func(ad *baseline.Adder, n *model.Network, assign model.Assignment, user int, opts model.Options) (int, error)
	adder baseline.Adder
}

// Name implements Strategy.
func (a *addStrategy) Name() string { return a.name }

// Solve implements Strategy.
func (a *addStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	a.adder.ResetStats()
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		assign[i] = model.Unassigned
	}
	for i := range assign {
		if _, err := a.add(&a.adder, n, assign, i, a.cfg.ModelOpts); err != nil {
			return nil, err
		}
	}
	evals, probes := a.adder.Stats()
	a.cfg.emit(baselineStats(a.name, n, time.Since(start), evals, probes))
	return assign, nil
}

// Add implements Online.
func (a *addStrategy) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	return a.add(&a.adder, n, assign, user, a.cfg.ModelOpts)
}

// optimalStrategy is the exhaustive search — offline-only (neither
// Online nor Reassigner): placing one arrival optimally would mean
// re-solving the whole instance, which is not an online policy.
type optimalStrategy struct {
	cfg    Config
	search baseline.Searcher
}

// Name implements Strategy.
func (o *optimalStrategy) Name() string { return "optimal" }

// Solve implements Strategy.
func (o *optimalStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	o.search.ResetStats()
	assign, _, err := baseline.OptimalBoundedWith(&o.search, n, o.cfg.ModelOpts, baseline.DefaultOptimalLimits)
	if err != nil {
		return nil, err
	}
	evals, probes := o.search.Stats()
	o.cfg.emit(baselineStats("optimal", n, time.Since(start), evals, probes))
	return assign, nil
}

// randomStrategy associates uniformly at random — the sanity floor.
type randomStrategy struct {
	cfg Config
	rng *rand.Rand
}

// Name implements Strategy.
func (r *randomStrategy) Name() string { return "random" }

// Solve implements Strategy.
func (r *randomStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	assign, err := baseline.Random(n, r.rng)
	if err != nil {
		return nil, err
	}
	r.cfg.emit(baselineStats("random", n, time.Since(start), 0, 0))
	return assign, nil
}

// Add implements Online: one uniform draw over the user's reachable
// extenders (the same draw sequence as Solve makes per user).
func (r *randomStrategy) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	if user < 0 || user >= n.NumUsers() {
		return 0, fmt.Errorf("strategy: user %d out of range", user)
	}
	var reachable []int
	for j, rate := range n.WiFiRates[user] {
		if rate > 0 {
			reachable = append(reachable, j)
		}
	}
	if len(reachable) == 0 {
		return 0, fmt.Errorf("strategy: user %d reaches no extender", user)
	}
	assign[user] = reachable[r.rng.Intn(len(reachable))]
	return assign[user], nil
}

// The facade (package wolt) and other non-registry callers reach the
// baseline algorithms through these passthroughs, keeping
// internal/baseline an implementation detail of this package (enforced
// by scripts/lint-imports.sh).

// RSSI associates each user with the extender of strongest signal
// (signal[i][j] is any monotone metric, dBm RSSI in the experiments).
func RSSI(n *model.Network, signal [][]float64) (model.Assignment, error) {
	return baseline.RSSI(n, signal)
}

// Strongest returns the reachable extender (rate > 0) with the highest
// signal, ties to the lowest index; a nil signal means the rates. It
// returns model.Unassigned when the user reaches no extender.
func Strongest(rates, signal []float64) int {
	return baseline.Strongest(rates, signal)
}

// Greedy replays the aggregate-throughput-greedy arrival sequence
// (nil order = index order).
func Greedy(n *model.Network, order []int, opts model.Options) (model.Assignment, error) {
	return baseline.Greedy(n, order, opts)
}

// Selfish replays the own-throughput-greedy arrival sequence.
func Selfish(n *model.Network, order []int, opts model.Options) (model.Assignment, error) {
	return baseline.Selfish(n, order, opts)
}

// Optimal exhaustively searches all associations under the default
// instance-size limits.
func Optimal(n *model.Network, opts model.Options) (model.Assignment, float64, error) {
	return baseline.Optimal(n, opts)
}

// Random associates every user uniformly at random.
func Random(n *model.Network, rng *rand.Rand) (model.Assignment, error) {
	return baseline.Random(n, rng)
}
