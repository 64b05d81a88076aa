package netsim

import (
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/topology"
)

func staticPolicies() []Policy {
	return []Policy{
		WOLTPolicy(),
		GreedyPolicy(redistribute),
		SelfishPolicy(redistribute),
		RSSIPolicy(),
	}
}

// TestRunStaticDeterministicAcrossWorkers asserts the determinism
// contract: the full result — every per-trial aggregate, per-user
// vector, Jain index and saturation fraction — is bit-identical no
// matter how many workers run the trials.
func TestRunStaticDeterministicAcrossWorkers(t *testing.T) {
	cfg := StaticConfig{
		Topology:  topology.Config{NumExtenders: 5, NumUsers: 20, Seed: 77},
		Trials:    12,
		ModelOpts: redistribute,
	}
	cfg.Workers = 1
	want, err := RunStatic(cfg, staticPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		cfg.Workers = workers
		got, err := RunStatic(cfg, staticPolicies())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers:%d result differs from Workers:1", workers)
		}
	}
}

// TestRunStaticRandomDeterministicAcrossWorkers: a randomized strategy
// builds its instance inside each trial, so its draws depend only on its
// Config and the trial. Every worker count, and RunTrial row by row,
// must agree.
func TestRunStaticRandomDeterministicAcrossWorkers(t *testing.T) {
	policies := []Policy{randomPolicy(3), RSSIPolicy()}
	cfg := StaticConfig{
		Topology:  topology.Config{NumExtenders: 5, NumUsers: 20, Seed: 41},
		Trials:    24,
		ModelOpts: redistribute,
		Workers:   1,
	}
	want, err := RunStatic(cfg, policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		cfg.Workers = workers
		got, err := RunStatic(cfg, policies)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers:%d result differs from Workers:1", workers)
		}
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		tc := cfg.Topology
		tc.Seed = seed.Derive(tc.Seed, seed.NetsimTrial, int64(trial))
		trs, err := RunTrial(tc, radio.DefaultModel(), policies, redistribute)
		if err != nil {
			t.Fatal(err)
		}
		for p := range trs {
			if !reflect.DeepEqual(trs[p], want[p].Trials[trial]) {
				t.Fatalf("trial %d policy %s: RunTrial differs from RunStatic", trial, want[p].Policy)
			}
		}
	}
}

// TestRunTrialMatchesRunStatic: the exported per-trial unit of work
// agrees bit-for-bit with the corresponding RunStatic row.
func TestRunTrialMatchesRunStatic(t *testing.T) {
	topoCfg := topology.Config{NumExtenders: 4, NumUsers: 16, Seed: 31}
	cfg := StaticConfig{Topology: topoCfg, Trials: 3, ModelOpts: redistribute, Workers: 1}
	static, err := RunStatic(cfg, staticPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		tc := topoCfg
		tc.Seed = seed.Derive(topoCfg.Seed, seed.NetsimTrial, int64(trial))
		trs, err := RunTrial(tc, radio.DefaultModel(), staticPolicies(), redistribute)
		if err != nil {
			t.Fatal(err)
		}
		for p := range trs {
			if !reflect.DeepEqual(trs[p], static[p].Trials[trial]) {
				t.Fatalf("trial %d policy %d: RunTrial differs from RunStatic", trial, p)
			}
		}
	}
}

// TestRunStaticSaturationFractionBounds sanity-checks the new per-trial
// saturation signal and its aggregate helper.
func TestRunStaticSaturationFractionBounds(t *testing.T) {
	cfg := StaticConfig{
		Topology: topology.Config{
			NumExtenders: 4, NumUsers: 24, Seed: 11,
			// Starved backhaul: saturation should be common.
			PLCCapacityMinMbps: 5, PLCCapacityMaxMbps: 10,
		},
		Trials:    5,
		ModelOpts: redistribute,
	}
	results, err := RunStatic(cfg, []Policy{WOLTPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, tr := range results[0].Trials {
		if tr.SaturationFraction < 0 || tr.SaturationFraction > 1 {
			t.Fatalf("saturation fraction %v out of [0,1]", tr.SaturationFraction)
		}
		sum += tr.SaturationFraction
	}
	if sum <= 0 {
		t.Fatal("starved PLC backhaul should saturate some extenders")
	}
}

func BenchmarkStatic(b *testing.B) {
	cfg := StaticConfig{
		Topology:  topology.Config{NumExtenders: 8, NumUsers: 48, Seed: 3},
		Trials:    16,
		ModelOpts: redistribute,
	}
	policies := []Policy{
		WOLTPolicy(),
		GreedyPolicy(redistribute),
		RSSIPolicy(),
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"Workers1", 1}, {"WorkersAll", 0}} {
		cfg.Workers = bc.workers
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunStatic(cfg, policies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
