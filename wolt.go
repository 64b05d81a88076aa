// Package wolt is a Go implementation of WOLT (ICDCS 2020):
// auto-configuration of integrated enterprise PLC-WiFi networks.
//
// PLC-WiFi extenders plug into power outlets and bridge WiFi clients to a
// master router over the powerline backhaul. Unlike Ethernet, the PLC
// backhaul is capacity-constrained and time-shared across extenders, so
// naive strongest-signal association wastes most of the network's
// potential. WOLT assigns users to extenders to maximize the aggregate
// end-to-end throughput over both concatenated link segments:
//
//	Phase I  — solve a relaxed association exactly as an assignment
//	           problem with utilities min(c_j/|A|, r_ij) (Hungarian
//	           algorithm, O(|A|³));
//	Phase II — place the remaining users by maximizing total WiFi
//	           throughput, a nonlinear program with provably integral
//	           optima.
//
// The package is a facade over the implementation packages:
//
//   - the association algorithms (WOLT plus the paper's RSSI, Greedy,
//     Selfish, Optimal and Random baselines),
//   - the concatenated PLC+WiFi throughput model with time-fair PLC
//     sharing and leftover redistribution,
//   - physical substrates (radio channel + rate adaptation, PLC line
//     model, IEEE 1901 and 802.11 MAC simulators),
//   - a flow-level network simulator with Poisson churn,
//   - a distributed control plane (central controller + user agents over
//     TCP), and
//   - an emulated testbed measuring associations with real shaped TCP
//     flows.
//
// Quickstart:
//
//	n := &wolt.Network{
//	    WiFiRates: [][]float64{{15, 10}, {40, 20}}, // r_ij (Mbps)
//	    PLCCaps:   []float64{60, 20},               // c_j (Mbps)
//	}
//	res, err := wolt.Assign(n, wolt.Options{})
//	// res.Assign[i] is user i's extender.
//	eval, err := wolt.Evaluate(n, res.Assign, wolt.EvalOptions{Redistribute: true})
//	// eval.Aggregate is the end-to-end network throughput.
package wolt

import (
	"math/rand"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/mobility"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
	"github.com/plcwifi/wolt/internal/workload"
)

// Core problem types.
type (
	// Network is the association-problem input: the WiFi PHY rate matrix
	// r_ij and the PLC isolation capacities c_j.
	Network = model.Network
	// Assignment maps each user index to an extender index (or
	// Unassigned).
	Assignment = model.Assignment
	// EvalOptions selects the PLC sharing behaviour during evaluation.
	EvalOptions = model.Options
	// EvalResult is the evaluated throughput of an assignment.
	EvalResult = model.Result

	// Options configures the WOLT algorithm.
	Options = core.Options
	// Result is a complete WOLT association with diagnostics.
	Result = core.Result
)

// Unassigned marks a user without an extender.
const Unassigned = model.Unassigned

// Phase II solver choices.
const (
	// Phase2ProjectedGradient solves Phase II's continuous relaxation by
	// projected gradient (the paper's interior-point role) and extracts
	// an integral solution. The default.
	Phase2ProjectedGradient = core.Phase2ProjectedGradient
	// Phase2Coordinate uses the discrete best-response solver.
	Phase2Coordinate = core.Phase2Coordinate
)

// IncrementalResult is the outcome of a budgeted re-association.
type IncrementalResult = core.IncrementalResult

// Assign runs the two-phase WOLT algorithm.
func Assign(n *Network, opts Options) (*Result, error) {
	return core.Assign(n, opts)
}

// AssignIncremental moves the network toward the WOLT association while
// re-associating at most budget existing users (arrivals are free;
// negative budget = unlimited). An extension of the paper's Fig 6c
// re-assignment-overhead discussion.
func AssignIncremental(n *Network, prev Assignment, budget int, opts Options, evalOpts EvalOptions) (*IncrementalResult, error) {
	return core.AssignIncremental(n, prev, budget, opts, evalOpts)
}

// AssignProportionalFair runs WOLT with a proportional-fairness Phase II:
// Phase I is unchanged, and the remaining users are placed by the
// coordinate solver to maximize Σ log(throughput) instead of total WiFi
// throughput (the α=1 member of Options.Utility).
func AssignProportionalFair(n *Network, opts Options) (*Result, error) {
	opts.Utility = model.ProportionalFairness()
	opts.Solver = core.Phase2Coordinate
	return core.Assign(n, opts)
}

// Evaluate computes per-user, per-extender and aggregate end-to-end
// throughputs of an assignment under the PLC+WiFi sharing model.
func Evaluate(n *Network, a Assignment, opts EvalOptions) (*EvalResult, error) {
	return model.Evaluate(n, a, opts)
}

// AssignRSSI associates every user with the extender of strongest signal
// (signal[i][j] in dBm); the commodity default behaviour.
func AssignRSSI(n *Network, signal [][]float64) (Assignment, error) {
	return strategy.RSSI(n, signal)
}

// AssignGreedy runs the paper's online greedy baseline: users arrive in
// the given order (nil = index order) and each picks the extender
// maximizing the aggregate throughput so far.
func AssignGreedy(n *Network, order []int, opts EvalOptions) (Assignment, error) {
	return strategy.Greedy(n, order, opts)
}

// AssignSelfish runs the §III-B online greedy: each arrival maximizes its
// own end-to-end throughput.
func AssignSelfish(n *Network, order []int, opts EvalOptions) (Assignment, error) {
	return strategy.Selfish(n, order, opts)
}

// AssignOptimal exhaustively searches all associations (small networks
// only) and returns the optimum and its aggregate throughput.
func AssignOptimal(n *Network, opts EvalOptions) (Assignment, float64, error) {
	return strategy.Optimal(n, opts)
}

// AssignRandom associates every user uniformly at random.
func AssignRandom(n *Network, rng *rand.Rand) (Assignment, error) {
	return strategy.Random(n, rng)
}

// Strategy-registry types: every association algorithm (WOLT variants
// and baselines) is available as a named, instrumented Strategy.
type (
	// Strategy computes associations; instances carry their own scratch
	// and rng (give each goroutine its own).
	Strategy = strategy.Strategy
	// StrategyConfig parameterizes a strategy instance.
	StrategyConfig = strategy.Config
	// StrategyStats is the per-solve instrumentation record.
	StrategyStats = strategy.Stats
)

// NewStrategy builds a configured instance of a named strategy from the
// registry (see StrategyNames).
func NewStrategy(name string, cfg StrategyConfig) (Strategy, error) {
	return strategy.New(name, cfg)
}

// StrategyNames lists the registered strategy names, sorted.
func StrategyNames() []string {
	return strategy.Names()
}

// Simulation types.
type (
	// Topology is a physical floor plan with extenders and users.
	Topology = topology.Topology
	// TopologyConfig parameterizes random topology generation.
	TopologyConfig = topology.Config
	// RadioModel maps user-extender distance (plus shadowing) to WiFi
	// PHY rate and RSSI.
	RadioModel = radio.Model
	// Instance is a topology with derived rate/RSSI matrices.
	Instance = netsim.Instance
	// Policy is an association policy driven by the simulator: a
	// strategy-registry name and its StrategyConfig under a display
	// name (an empty strategy is the controller-less RSSI baseline).
	Policy = netsim.Policy
	// StaticConfig parameterizes independent-trial simulations.
	StaticConfig = netsim.StaticConfig
	// StaticResult aggregates a policy's outcomes across trials.
	StaticResult = netsim.StaticResult
	// DynamicConfig parameterizes churn simulations.
	DynamicConfig = netsim.DynamicConfig
	// EpochResult is the network state at one epoch boundary.
	EpochResult = netsim.EpochResult
	// ChurnConfig drives Poisson arrival/departure traces.
	ChurnConfig = workload.Config
)

// WOLTPolicy recomputes the full association at epoch boundaries;
// arrivals join the strongest-signal extender until then.
func WOLTPolicy() Policy { return netsim.WOLTPolicy() }

// GreedyPolicy assigns each arrival to maximize aggregate throughput.
func GreedyPolicy(opts EvalOptions) Policy { return netsim.GreedyPolicy(opts) }

// SelfishPolicy assigns each arrival to maximize its own throughput.
func SelfishPolicy(opts EvalOptions) Policy { return netsim.SelfishPolicy(opts) }

// RSSIPolicy assigns each arrival by strongest signal.
func RSSIPolicy() Policy { return netsim.RSSIPolicy() }

// Mobility types (random-waypoint user motion).
type (
	// MobilityConfig parameterizes the random-waypoint model.
	MobilityConfig = mobility.Config
	// Fleet animates a topology's users.
	Fleet = mobility.Fleet
)

// DefaultMobilityConfig returns pedestrian motion (0.5–1.5 m/s).
func DefaultMobilityConfig() MobilityConfig {
	return mobility.DefaultConfig()
}

// NewFleet builds random-waypoint walkers for every user of a topology;
// Fleet.Advance moves them and updates the topology in place.
func NewFleet(topo *Topology, cfg MobilityConfig) (*Fleet, error) {
	return mobility.NewFleet(topo, cfg)
}

// GenerateTopology builds a seeded random topology.
func GenerateTopology(cfg TopologyConfig) (*Topology, error) {
	return topology.Generate(cfg)
}

// DefaultRadioModel returns the indoor channel + 802.11g rate table used
// throughout the experiments.
func DefaultRadioModel() RadioModel {
	return radio.DefaultModel()
}

// BuildInstance derives the association-problem inputs from a topology.
func BuildInstance(topo *Topology, rm RadioModel) *Instance {
	return netsim.Build(topo, rm)
}

// RunStatic evaluates policies over independent random topologies.
func RunStatic(cfg StaticConfig, policies []Policy) ([]StaticResult, error) {
	return netsim.RunStatic(cfg, policies)
}

// RunDynamic replays a Poisson churn trace against one policy,
// recomputing at epoch boundaries.
func RunDynamic(cfg DynamicConfig, policy Policy) ([]EpochResult, error) {
	return netsim.RunDynamic(cfg, policy)
}
