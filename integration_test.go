package wolt_test

import (
	"math"
	"testing"
	"time"

	wolt "github.com/plcwifi/wolt"
	"github.com/plcwifi/wolt/internal/experiments"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/topology"
)

// TestEndToEndPipeline drives the complete system the way a deployment
// would: generate a physical topology, derive the association inputs
// through the radio model, associate every user through the real TCP
// control plane, realize the result as shaped TCP flows on the emulated
// testbed, and check the measurement against the analytic model.
func TestEndToEndPipeline(t *testing.T) {
	scen := experiments.NewTestbedScenario(4242)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		t.Fatal(err)
	}
	inst := netsim.Build(topo, scen.Radio)

	// 1. Control plane: controller + one agent per user over loopback.
	server, err := wolt.NewController("127.0.0.1:0", wolt.ControllerConfig{
		EngineConfig: wolt.EngineConfig{
			PLCCaps: inst.Net.PLCCaps,
			Policy:  wolt.ControllerWOLT,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()

	agents := make([]*wolt.Agent, len(inst.UserIDs))
	for i, id := range inst.UserIDs {
		agent, err := wolt.DialAgent(server.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = agent.Close() }()
		agents[i] = agent
		if _, err := agent.Join(inst.Net.WiFiRates[i], inst.RSSI[i], 5*time.Second); err != nil {
			t.Fatalf("user %d join: %v", id, err)
		}
	}
	// Let trailing re-association directives land.
	time.Sleep(50 * time.Millisecond)

	stats := server.StatsSnapshot()
	if stats.Users != len(inst.UserIDs) {
		t.Fatalf("controller tracks %d users, want %d", stats.Users, len(inst.UserIDs))
	}

	// 2. The controller's association must equal the library's direct
	// WOLT answer on the same inputs.
	direct, err := wolt.Assign(inst.Net, wolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assign := make(wolt.Assignment, len(inst.UserIDs))
	for i, id := range inst.UserIDs {
		ext, ok := stats.Assignment[id]
		if !ok {
			t.Fatalf("user %d missing from controller", id)
		}
		assign[i] = ext
	}
	evalOpts := wolt.EvalOptions{Redistribute: true}
	directAgg, err := wolt.Evaluate(inst.Net, direct.Assign, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	controlAgg, err := wolt.Evaluate(inst.Net, assign, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The controller recomputes per join over user subsets, so the exact
	// assignment may differ from the one-shot answer, but the aggregate
	// quality must match closely.
	if controlAgg.Aggregate < 0.95*directAgg.Aggregate {
		t.Errorf("control-plane aggregate %v well below direct %v",
			controlAgg.Aggregate, directAgg.Aggregate)
	}

	// 3. Realize the association with real shaped TCP flows and compare
	// measurement against the model.
	run, err := wolt.RunTestbed(wolt.TestbedConfig{
		Net:      inst.Net,
		Assign:   assign,
		Opts:     evalOpts,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(run.AggregateMbps-run.ModelAggregateMbps) / run.ModelAggregateMbps; rel > 0.25 {
		t.Errorf("measured %v vs model %v: %.0f%% apart",
			run.AggregateMbps, run.ModelAggregateMbps, rel*100)
	}
}

// TestChurnThenIncrementalReassociation chains the dynamic simulator
// with the incremental re-association extension: after an epoch of
// churn, a small move budget recovers most of the full-recompute gain.
func TestChurnThenIncrementalReassociation(t *testing.T) {
	scen := experiments.NewEnterpriseScenario(6, 18, 99)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		t.Fatal(err)
	}
	inst := netsim.Build(topo, scen.Radio)
	evalOpts := wolt.EvalOptions{Redistribute: true}

	// Start from the commodity default: strongest signal.
	prev := make(wolt.Assignment, inst.Net.NumUsers())
	for i := range prev {
		best, bestSig := 0, inst.RSSI[i][0]
		for j, sig := range inst.RSSI[i] {
			if sig > bestSig {
				best, bestSig = j, sig
			}
		}
		prev[i] = best
	}
	prevAgg, err := wolt.Evaluate(inst.Net, prev, evalOpts)
	if err != nil {
		t.Fatal(err)
	}

	res, err := wolt.AssignIncremental(inst.Net, prev, 3, wolt.Options{}, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) > 3 {
		t.Fatalf("budget exceeded: %d moves", len(res.Moves))
	}
	if res.AchievedAggregate < prevAgg.Aggregate-1e-9 {
		t.Errorf("incremental run decreased aggregate: %v -> %v",
			prevAgg.Aggregate, res.AchievedAggregate)
	}
	if res.TargetAggregate > prevAgg.Aggregate {
		// When full WOLT improves on RSSI, three moves should recover a
		// majority of that gap on this instance.
		recovered := (res.AchievedAggregate - prevAgg.Aggregate) /
			(res.TargetAggregate - prevAgg.Aggregate)
		if recovered < 0.5 {
			t.Errorf("3 moves recovered only %.0f%% of the gap", recovered*100)
		}
	}
}
