package netsim

import (
	"math"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

var redistribute = model.Options{Redistribute: true}

func smallTopoCfg(seed int64) topology.Config {
	return topology.Config{NumExtenders: 4, NumUsers: 12, Seed: seed}
}

// randomPolicy is the uniform-random sanity floor, seeded.
func randomPolicy(s int64) Policy {
	return Policy{Name: "Random", Strategy: "random", Config: strategy.Config{Seed: s}}
}

func newStrategy(t *testing.T, p Policy) strategy.Strategy {
	t.Helper()
	st, err := p.newStrategy()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildShapes(t *testing.T) {
	topo, err := topology.Generate(smallTopoCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := Build(topo, radio.DefaultModel())
	if inst.Net.NumUsers() != 12 || inst.Net.NumExtenders() != 4 {
		t.Fatalf("network shape %dx%d", inst.Net.NumUsers(), inst.Net.NumExtenders())
	}
	if err := inst.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, row := range inst.Net.WiFiRates {
		for j, r := range row {
			if r <= 0 {
				t.Errorf("rate[%d][%d] = %v, want positive (floor rate)", i, j, r)
			}
		}
	}
	if len(inst.RSSI) != 12 || len(inst.RSSI[0]) != 4 {
		t.Fatal("RSSI matrix shape wrong")
	}
	for i, id := range inst.UserIDs {
		if id != topo.Users[i].ID {
			t.Errorf("UserIDs[%d] = %d, want %d", i, id, topo.Users[i].ID)
		}
	}
}

func TestRSSIAndRateOrderingAgree(t *testing.T) {
	// With a monotone rate table, the strongest-RSSI extender also has
	// the highest (or tied) rate.
	topo, err := topology.Generate(smallTopoCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	inst := Build(topo, radio.DefaultModel())
	for i := range inst.RSSI {
		bestSig, bestJ := math.Inf(-1), -1
		for j, sig := range inst.RSSI[i] {
			if sig > bestSig {
				bestSig, bestJ = sig, j
			}
		}
		maxRate := 0.0
		for _, r := range inst.Net.WiFiRates[i] {
			if r > maxRate {
				maxRate = r
			}
		}
		if inst.Net.WiFiRates[i][bestJ] != maxRate {
			t.Errorf("user %d: strongest-RSSI extender rate %v below max %v",
				i, inst.Net.WiFiRates[i][bestJ], maxRate)
		}
	}
}

func TestRunStaticValidation(t *testing.T) {
	if _, err := RunStatic(StaticConfig{Trials: 0}, []Policy{RSSIPolicy()}); err == nil {
		t.Error("zero trials: want error")
	}
	if _, err := RunStatic(StaticConfig{Topology: smallTopoCfg(1), Trials: 1}, nil); err == nil {
		t.Error("no policies: want error")
	}
}

func TestRunStaticAllPolicies(t *testing.T) {
	cfg := StaticConfig{
		Topology:  smallTopoCfg(10),
		Trials:    5,
		ModelOpts: redistribute,
	}
	policies := []Policy{
		WOLTPolicy(),
		GreedyPolicy(redistribute),
		SelfishPolicy(redistribute),
		RSSIPolicy(),
		randomPolicy(1),
	}
	results, err := RunStatic(cfg, policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.Trials) != 5 {
			t.Errorf("%s: %d trials, want 5", r.Policy, len(r.Trials))
		}
		for i, tr := range r.Trials {
			if tr.Aggregate <= 0 {
				t.Errorf("%s trial %d: non-positive aggregate %v", r.Policy, i, tr.Aggregate)
			}
			if tr.Jain <= 0 || tr.Jain > 1 {
				t.Errorf("%s trial %d: Jain %v outside (0,1]", r.Policy, i, tr.Jain)
			}
			if len(tr.PerUser) != 12 {
				t.Errorf("%s trial %d: %d per-user entries", r.Policy, i, len(tr.PerUser))
			}
		}
	}
}

func TestWOLTBeatsBaselinesAtScale(t *testing.T) {
	// The headline claim (Fig 6a shape): in the enterprise simulation
	// regime — AV2-class PLC links, so WiFi is frequently the bottleneck
	// and association quality matters — WOLT's mean aggregate exceeds
	// Selfish's, Greedy's and RSSI's. (When the PLC backhaul saturates
	// everywhere, all spreading policies collapse to Σc_j/A and the
	// association problem is degenerate; see DESIGN.md.)
	rm := radio.DefaultModel()
	rm.Channel.PathLossExponent = 3.5
	rm.Channel.TxPowerDBm = 14
	cfg := StaticConfig{
		Topology: topology.Config{
			NumExtenders: 10, NumUsers: 36, Seed: 100,
			PLCCapacityMinMbps: 300, PLCCapacityMaxMbps: 800,
		},
		Radio:     &rm,
		Trials:    8,
		ModelOpts: redistribute,
	}
	results, err := RunStatic(cfg, []Policy{
		WOLTPolicy(),
		GreedyPolicy(redistribute),
		SelfishPolicy(redistribute),
		RSSIPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wolt := results[0].MeanAggregate()
	for _, other := range results[1:] {
		if wolt <= other.MeanAggregate() {
			t.Errorf("WOLT mean %v not above %s mean %v", wolt, other.Policy, other.MeanAggregate())
		}
	}
}

func TestStaticDeterministic(t *testing.T) {
	cfg := StaticConfig{Topology: smallTopoCfg(42), Trials: 3, ModelOpts: redistribute}
	a, err := RunStatic(cfg, []Policy{WOLTPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStatic(cfg, []Policy{WOLTPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0].Trials {
		if a[0].Trials[i].Aggregate != b[0].Trials[i].Aggregate {
			t.Fatalf("trial %d aggregate differs across identical runs", i)
		}
	}
}

func TestOnArrivalErrors(t *testing.T) {
	topo, err := topology.Generate(smallTopoCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	inst := Build(topo, radio.DefaultModel())
	assign := newUnassigned(len(topo.Users))
	// WOLT has no online form: arrivals take the strongest-RSSI rule.
	st := newStrategy(t, WOLTPolicy())
	if err := arrive(st, inst, assign, 99); err == nil {
		t.Error("out-of-range user: want error")
	}
	if err := arrive(st, inst, assign, -1); err == nil {
		t.Error("negative user: want error")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"WOLT":    WOLTPolicy(),
		"Greedy":  GreedyPolicy(model.Options{}),
		"Selfish": SelfishPolicy(model.Options{}),
		"RSSI":    RSSIPolicy(),
	}
	for want, p := range names {
		if p.Name != want {
			t.Errorf("policy name = %q, want %q", p.Name, want)
		}
	}
}

func TestBaselineOnEpochIsIdentity(t *testing.T) {
	topo, err := topology.Generate(smallTopoCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	inst := Build(topo, radio.DefaultModel())
	assign := newUnassigned(len(topo.Users))
	for i := range topo.Users {
		if err := arrive(nil, inst, assign, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []Policy{
		GreedyPolicy(redistribute),
		SelfishPolicy(redistribute),
		RSSIPolicy(),
		randomPolicy(1),
	} {
		out, err := reassign(newStrategy(t, p), inst, assign.Clone())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if out.Diff(assign) != 0 {
			t.Errorf("%s epoch changed the assignment", p.Name)
		}
	}
}

func TestSelfishPolicyOnArrival(t *testing.T) {
	topo, err := topology.Generate(smallTopoCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	inst := Build(topo, radio.DefaultModel())
	assign := newUnassigned(len(topo.Users))
	st := newStrategy(t, SelfishPolicy(redistribute))
	for i := range topo.Users {
		if err := arrive(st, inst, assign, i); err != nil {
			t.Fatal(err)
		}
		if assign[i] == model.Unassigned {
			t.Fatalf("user %d left unassigned", i)
		}
	}
}
