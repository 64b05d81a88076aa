package netsim

import (
	"testing"

	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/topology"
	"github.com/plcwifi/wolt/internal/workload"
)

func dynCfg(seed int64) DynamicConfig {
	// Enterprise calibration (see DESIGN.md): AV2-class PLC links so the
	// WiFi side binds often enough for association quality to matter.
	rm := radio.DefaultModel()
	rm.Channel.PathLossExponent = 3.5
	rm.Channel.TxPowerDBm = 14
	return DynamicConfig{
		Topology: topology.Config{
			NumExtenders: 5, NumUsers: 20, Seed: seed,
			PLCCapacityMinMbps: 300, PLCCapacityMaxMbps: 800,
		},
		Radio: &rm,
		Churn: workload.Config{
			ArrivalRate:   3,
			DepartureRate: 1,
			Horizon:       24,
			Seed:          seed,
		},
		EpochLen:  8,
		ModelOpts: redistribute,
	}
}

func TestRunDynamicValidation(t *testing.T) {
	cfg := dynCfg(1)
	cfg.EpochLen = 0
	if _, err := RunDynamic(cfg, WOLTPolicy()); err == nil {
		t.Error("zero epoch length: want error")
	}
	cfg = dynCfg(1)
	cfg.Churn.Horizon = 0
	if _, err := RunDynamic(cfg, WOLTPolicy()); err == nil {
		t.Error("zero horizon: want error")
	}
}

func TestRunDynamicWOLT(t *testing.T) {
	results, err := RunDynamic(dynCfg(11), WOLTPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d epochs, want 3", len(results))
	}
	prevUsers := 20
	for _, er := range results {
		if er.Users != prevUsers+er.Arrivals-er.Departures {
			t.Errorf("epoch %d: users %d inconsistent with %d+%d-%d",
				er.Epoch, er.Users, prevUsers, er.Arrivals, er.Departures)
		}
		prevUsers = er.Users
		if er.Aggregate <= 0 {
			t.Errorf("epoch %d: aggregate %v", er.Epoch, er.Aggregate)
		}
		if er.Jain <= 0 || er.Jain > 1 {
			t.Errorf("epoch %d: Jain %v", er.Epoch, er.Jain)
		}
	}
	// Net growth: arrival rate 3 vs departure rate 1 should grow the
	// population over 24 time units.
	if results[len(results)-1].Users <= 20 {
		t.Errorf("population did not grow: %d", results[len(results)-1].Users)
	}
}

func TestGreedyAndRSSINeverReassign(t *testing.T) {
	for _, policy := range []Policy{GreedyPolicy(redistribute), RSSIPolicy()} {
		results, err := RunDynamic(dynCfg(13), policy)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name, err)
		}
		for _, er := range results {
			if er.Reassignments != 0 {
				t.Errorf("%s epoch %d: %d reassignments, want 0",
					policy.Name, er.Epoch, er.Reassignments)
			}
		}
	}
}

func TestWOLTReassignmentsBounded(t *testing.T) {
	// Fig 6c claim: WOLT re-assigns a modest number of users — on the
	// order of (and bounded by a small multiple of) the epoch's arrivals
	// plus the initial population for the first epoch.
	results, err := RunDynamic(dynCfg(17), WOLTPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range results {
		if er.Reassignments > er.Users {
			t.Errorf("epoch %d: %d reassignments exceed population %d",
				er.Epoch, er.Reassignments, er.Users)
		}
	}
}

func TestWOLTBeatsGreedyOverEpochs(t *testing.T) {
	wolt, err := RunDynamic(dynCfg(19), WOLTPolicy())
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunDynamic(dynCfg(19), GreedyPolicy(redistribute))
	if err != nil {
		t.Fatal(err)
	}
	var woltTotal, greedyTotal float64
	for i := range wolt {
		woltTotal += wolt[i].Aggregate
		greedyTotal += greedy[i].Aggregate
	}
	if woltTotal <= greedyTotal {
		t.Errorf("WOLT epoch total %v not above Greedy %v", woltTotal, greedyTotal)
	}
}

func TestRunDynamicDeterministic(t *testing.T) {
	a, err := RunDynamic(dynCfg(23), WOLTPolicy())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDynamic(dynCfg(23), WOLTPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestDepartureOfHighestIDThenArrival(t *testing.T) {
	// Regression guard for user-ID bookkeeping: traces where the
	// most-recently-arrived user departs before the next arrival must
	// not collide IDs. A long horizon with heavy churn exercises this.
	cfg := dynCfg(29)
	cfg.Churn.ArrivalRate = 2
	cfg.Churn.DepartureRate = 2
	cfg.Churn.Horizon = 40
	cfg.EpochLen = 5
	if _, err := RunDynamic(cfg, RSSIPolicy()); err != nil {
		t.Fatal(err)
	}
}
