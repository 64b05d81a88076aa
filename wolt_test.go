package wolt_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	wolt "github.com/plcwifi/wolt"
)

// fig3 is the paper's case-study network.
func fig3() *wolt.Network {
	return &wolt.Network{
		WiFiRates: [][]float64{
			{15, 10},
			{40, 20},
		},
		PLCCaps: []float64{60, 20},
	}
}

var redistribute = wolt.EvalOptions{Redistribute: true}

func TestFacadeAssignAndEvaluate(t *testing.T) {
	res, err := wolt.Assign(fig3(), wolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := wolt.Evaluate(fig3(), res.Assign, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eval.Aggregate-40) > 1e-9 {
		t.Errorf("WOLT aggregate = %v, want 40", eval.Aggregate)
	}
}

func TestFacadeBaselines(t *testing.T) {
	n := fig3()
	greedy, err := wolt.AssignGreedy(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	selfish, err := wolt.AssignSelfish(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	rssi, err := wolt.AssignRSSI(n, [][]float64{{-50, -60}, {-50, -60}})
	if err != nil {
		t.Fatal(err)
	}
	optimal, agg, err := wolt.AssignOptimal(n, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	random, err := wolt.AssignRandom(n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if agg != 40 || optimal[0] != 1 {
		t.Errorf("optimal = %v (%v Mbps)", optimal, agg)
	}
	for name, a := range map[string]wolt.Assignment{
		"greedy": greedy, "selfish": selfish, "rssi": rssi, "random": random,
	} {
		if a.NumAssigned() != 2 {
			t.Errorf("%s left users unassigned: %v", name, a)
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := wolt.StaticConfig{
		Topology: wolt.TopologyConfig{NumExtenders: 3, NumUsers: 9, Seed: 5},
		Trials:   2,
	}
	cfg.ModelOpts = redistribute
	results, err := wolt.RunStatic(cfg, []wolt.Policy{wolt.WOLTPolicy(), wolt.RSSIPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Trials) != 2 {
		t.Fatalf("unexpected result shape: %+v", results)
	}
}

func TestFacadeTopologyAndInstance(t *testing.T) {
	topo, err := wolt.GenerateTopology(wolt.TopologyConfig{NumExtenders: 2, NumUsers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst := wolt.BuildInstance(topo, wolt.DefaultRadioModel())
	if inst.Net.NumUsers() != 4 || inst.Net.NumExtenders() != 2 {
		t.Fatalf("instance shape %dx%d", inst.Net.NumUsers(), inst.Net.NumExtenders())
	}
}

func TestFacadeControlPlane(t *testing.T) {
	cc, err := wolt.NewController("127.0.0.1:0", wolt.ControllerConfig{
		EngineConfig: wolt.EngineConfig{
			PLCCaps: []float64{60, 20},
			Policy:  wolt.ControllerWOLT,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	agent, err := wolt.DialAgent(cc.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	ext, err := agent.Join([]float64{15, 10}, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ext != 0 {
		t.Errorf("lone user on %d, want 0", ext)
	}
}

func TestFacadeTestbed(t *testing.T) {
	res, err := wolt.RunTestbed(wolt.TestbedConfig{
		Net:      fig3(),
		Assign:   wolt.Assignment{1, 0},
		Opts:     redistribute,
		Duration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelAggregateMbps != 40 {
		t.Errorf("model aggregate = %v, want 40", res.ModelAggregateMbps)
	}
	if res.AggregateMbps <= 0 {
		t.Errorf("measured aggregate = %v", res.AggregateMbps)
	}
}

func TestFacadeQoS(t *testing.T) {
	plan, err := wolt.BuildQoSPlan(wolt.QoSConfig{
		Net:      fig3(),
		Priority: []wolt.QoSDemand{{User: 1, Mbps: 20}},
		Eval:     redistribute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Guaranteed[1] != 20 {
		t.Errorf("guaranteed = %v, want 20", plan.Guaranteed[1])
	}
	if plan.AggregateMbps() <= 20 {
		t.Errorf("aggregate %v should exceed the lone guarantee", plan.AggregateMbps())
	}
}

func TestFacadeMobility(t *testing.T) {
	topo, err := wolt.GenerateTopology(wolt.TopologyConfig{NumExtenders: 2, NumUsers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := wolt.NewFleet(topo, wolt.DefaultMobilityConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := topo.Users[0].Pos
	if err := fleet.Advance(30); err != nil {
		t.Fatal(err)
	}
	if topo.Users[0].Pos == before {
		t.Error("user did not move")
	}
}
