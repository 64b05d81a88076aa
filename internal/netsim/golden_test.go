package netsim

import (
	"math"
	"testing"

	"github.com/plcwifi/wolt/internal/topology"
)

// TestPaperPoliciesGolden pins the paper policies' per-trial and
// per-epoch aggregates bit for bit, so a refactor of the policy layer
// cannot drift the Fig 6 numbers unnoticed.
func TestPaperPoliciesGolden(t *testing.T) {
	static := map[string][]uint64{
		"WOLT":    {0x4060fea5beb0bd7b, 0x40549fe1a50bf758, 0x405bbdd2790d2b44, 0x405cebdedd2faa90, 0x40560b90c2a0da9d, 0x405b401cf2483909},
		"Greedy":  {0x40627c0641c7a2f5, 0x4057e3057f62cb59, 0x405e70cafe8be350, 0x406009e5b879c82b, 0x4057ba01b343a2de, 0x405cd24ec50c7c3c},
		"Selfish": {0x4060fea5beb0bd7b, 0x40549fe1a50bf758, 0x405bbdd2790d2b44, 0x405cca1c2cdc6b19, 0x40560b90c2a0da9d, 0x405b401cf2483909},
		"RSSI":    {0x4062533a7164dd47, 0x4055ff7164ee170c, 0x405bbdd2790d2b44, 0x405a3e108eb22ecc, 0x40560b90c2a0da9d, 0x405a597216c0afdb},
	}
	dynamic := map[string][]uint64{
		"WOLT":   {0x406b8385df1e8838, 0x406b879c5e18e87a, 0x406b8546cefa8d9e},
		"Greedy": {0x405f2772a4fc9763, 0x4061072e58a702a3, 0x4061bb270ec9c91b},
	}

	cfg := StaticConfig{
		Topology:  topology.Config{NumExtenders: 5, NumUsers: 20, Seed: 606},
		Trials:    6,
		ModelOpts: redistribute,
	}
	results, err := RunStatic(cfg, []Policy{
		WOLTPolicy(), GreedyPolicy(redistribute), SelfishPolicy(redistribute), RSSIPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for trial, tr := range r.Trials {
			if got, want := math.Float64bits(tr.Aggregate), static[r.Policy][trial]; got != want {
				t.Errorf("RunStatic %s trial %d: aggregate bits %#x, want %#x", r.Policy, trial, got, want)
			}
		}
	}

	for _, policy := range []Policy{WOLTPolicy(), GreedyPolicy(redistribute)} {
		epochs, err := RunDynamic(dynCfg(31), policy)
		if err != nil {
			t.Fatal(err)
		}
		want := dynamic[policy.Name]
		if len(epochs) != len(want) {
			t.Fatalf("RunDynamic %s: %d epochs, want %d", policy.Name, len(epochs), len(want))
		}
		for k, er := range epochs {
			if got := math.Float64bits(er.Aggregate); got != want[k] {
				t.Errorf("RunDynamic %s epoch %d: aggregate bits %#x, want %#x", policy.Name, k, got, want[k])
			}
		}
	}
}
