// Package experiments regenerates every table and figure of the paper's
// evaluation (§III measurement study, §V testbed and simulation results).
// Each Fig*/Table* function is self-contained, deterministic for a given
// seed, and returns a typed result that also renders as a printable
// table; cmd/woltsim, the examples and the root benchmarks all drive
// these entry points.
package experiments

import (
	"context"
	"time"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/topology"
	"github.com/plcwifi/wolt/internal/workload"
)

// Redistribute is the evaluation model used throughout: PLC time-fair
// sharing with leftover redistribution, as measured on the testbed
// (§III-B, Fig 3c).
var Redistribute = model.Options{Redistribute: true}

// TestbedScenario mirrors the paper's physical testbed (§V-A): a ~2400 m²
// university laboratory (49 m × 49 m), three TP-Link extenders plugged
// into randomly picked outlets with isolation capacities in the measured
// 60–160 Mbps range (Fig 2b), and seven laptops.
type TestbedScenario struct {
	Topology topology.Config
	Radio    radio.Model
}

// NewTestbedScenario returns the testbed calibration with the given seed.
// The radio is calibrated so that rates across the lab span the full
// 1–54 Mbps range (median ≈ 24 Mbps at the lab's typical distances): the
// paper's per-policy differences require cells that are WiFi-demand
// limited at least part of the time, which is what a large cluttered lab
// produces. With uniformly strong WiFi the PLC backhaul saturates and all
// spreading policies deliver the same Σc_j/A (see DESIGN.md).
func NewTestbedScenario(seed int64) TestbedScenario {
	rm := radio.DefaultModel()
	rm.Channel.TxPowerDBm = 6
	rm.Channel.PathLossExponent = 3.5
	rm.ShadowSeed = seed
	return TestbedScenario{
		Topology: topology.Config{
			Width:              49,
			Height:             49,
			NumExtenders:       3,
			NumUsers:           7,
			PLCCapacityMinMbps: 60,
			PLCCapacityMaxMbps: 160,
			Seed:               seed,
		},
		Radio: rm,
	}
}

// EnterpriseScenario mirrors the paper's large-scale simulation (§V-A):
// a 100 m × 100 m enterprise floor with extenders in random outlets and
// uniformly placed users. The PLC links are calibrated as HomePlug-AV2-
// class enterprise links (300–800 Mbps isolation capacity; see DESIGN.md
// — with the testbed's 60–160 Mbps links and 10+ extenders the PLC
// backhaul saturates under every spreading policy and the association
// problem degenerates), and the radio uses a 14 dBm/3.5-exponent indoor
// channel with 7 dB wall shadowing so user channel qualities span the
// full good-to-poor mix the paper describes.
type EnterpriseScenario struct {
	Topology topology.Config
	Radio    radio.Model
	Churn    workload.Config
	EpochLen float64
}

// NewEnterpriseScenario returns the enterprise calibration with the given
// number of extenders and initial users.
func NewEnterpriseScenario(numExtenders, numUsers int, seed int64) EnterpriseScenario {
	rm := radio.DefaultModel()
	rm.Channel.PathLossExponent = 3.5
	rm.Channel.TxPowerDBm = 14
	rm.ShadowSeed = seed
	return EnterpriseScenario{
		Topology: topology.Config{
			Width:              100,
			Height:             100,
			NumExtenders:       numExtenders,
			NumUsers:           numUsers,
			PLCCapacityMinMbps: 300,
			PLCCapacityMaxMbps: 800,
			Seed:               seed,
		},
		Radio: rm,
		Churn: workload.Config{
			ArrivalRate:   3,
			DepartureRate: 1,
			Horizon:       48,
			Seed:          seed,
		},
		EpochLen: 16,
	}
}

// Options tunes experiment runtime vs fidelity. The zero value selects
// paper-scale parameters; tests use reduced settings.
type Options struct {
	// Seed drives all randomness (default 2020, the paper's year).
	Seed int64
	// Trials overrides the number of independent topologies where the
	// paper specifies one (Fig 4a: 25 testbed topologies; Fig 6a: 100
	// simulation trials).
	Trials int
	// MACDuration overrides the simulated seconds of the MAC-level runs
	// (Fig 2a/2c; default 20 s).
	MACDuration float64
	// EmuDuration overrides the wall-clock measurement window of
	// emulated-testbed flows (default 1 s; shaped flows track their
	// model share within ±4% at that window, ±25% at 100 ms).
	EmuDuration time.Duration
	// Users overrides the simulated user count where the paper uses 36.
	Users int
	// Extenders overrides the simulated extender count where the paper
	// uses 10–15.
	Extenders int
	// Workers bounds the goroutines running independent units of work
	// (trials, grid cells, MAC runs, mobility worlds) in every driver
	// with a fan-out loop; <= 0 uses all available cores. Results are
	// identical for every worker count.
	Workers int
	// Strategy restricts strategy-iterating experiments (Solve) to one
	// registry name; empty runs all registered strategies.
	Strategy string
	// Concurrency adds a worker-lane axis to the city experiment: when
	// > 1, each shard count runs both sequentially and with this many
	// dispatch lanes (city.Config.Concurrency). <= 1 keeps the
	// sequential-only table.
	Concurrency int
	// Plane selects the city experiment's control plane: "" or
	// "coordinator" for the in-process sharded coordinator, "tcp" for
	// real sockets with the binary wire codec.
	Plane string
	// Ctx cancels a running experiment between units of work; nil means
	// context.Background(). On cancellation the driver returns promptly
	// with the context's error (the lowest-index task error otherwise).
	Ctx context.Context
}

// context returns the experiment's cancellation context, defaulting to
// context.Background().
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults(defaultTrials int) Options {
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.Trials <= 0 {
		o.Trials = defaultTrials
	}
	if o.MACDuration <= 0 {
		o.MACDuration = 20
	}
	if o.EmuDuration <= 0 {
		o.EmuDuration = time.Second
	}
	if o.Users <= 0 {
		o.Users = 36
	}
	if o.Extenders <= 0 {
		o.Extenders = 10
	}
	return o
}
