package qos

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

var redistribute = model.Options{Redistribute: true}

func fig3Network() *model.Network {
	return &model.Network{
		WiFiRates: [][]float64{
			{15, 10},
			{40, 20},
		},
		PLCCaps: []float64{60, 20},
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "nil network", cfg: Config{}},
		{name: "invalid network", cfg: Config{Net: &model.Network{}}},
		{name: "user out of range", cfg: Config{Net: fig3Network(), Priority: []Demand{{User: 9, Mbps: 5}}}},
		{name: "zero demand", cfg: Config{Net: fig3Network(), Priority: []Demand{{User: 0, Mbps: 0}}}},
		{name: "duplicate demand", cfg: Config{Net: fig3Network(), Priority: []Demand{{User: 0, Mbps: 1}, {User: 0, Mbps: 2}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestNoPriorityUsersMatchesWOLT(t *testing.T) {
	plan, err := Build(Config{Net: fig3Network(), Eval: redistribute})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalReserved != 0 {
		t.Errorf("reserved %v with no priority users", plan.TotalReserved)
	}
	// The plan is plain WOLT: users swapped across extenders, 40 Mbps.
	if plan.Assign[0] != 1 || plan.Assign[1] != 0 {
		t.Errorf("assign = %v, want [1 0]", plan.Assign)
	}
	if math.Abs(plan.AggregateMbps()-40) > 1e-9 {
		t.Errorf("aggregate = %v, want 40", plan.AggregateMbps())
	}
}

func TestGuaranteeAdmitted(t *testing.T) {
	// User 2 demands a guaranteed 20 Mbps. The cheapest reservation per
	// bit is on extender 1 (c=60): 20/60 = 1/3 of the medium; its WiFi
	// rate there (40) sustains it.
	plan, err := Build(Config{
		Net:      fig3Network(),
		Priority: []Demand{{User: 1, Mbps: 20}},
		Eval:     redistribute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assign[1] != 0 {
		t.Errorf("priority user on extender %d, want 0", plan.Assign[1])
	}
	if math.Abs(plan.ReservedTime[0]-20.0/60.0) > 1e-9 {
		t.Errorf("reserved time = %v, want 1/3", plan.ReservedTime[0])
	}
	if plan.Guaranteed[1] != 20 {
		t.Errorf("guaranteed = %v, want 20", plan.Guaranteed[1])
	}
	// The best-effort user (user 0) still gets associated and served
	// from the remaining 2/3 CSMA period.
	if plan.Assign[0] == model.Unassigned {
		t.Error("best-effort user left unassigned")
	}
	if plan.BestEffort == nil || plan.BestEffort.Aggregate <= 0 {
		t.Error("best-effort share missing")
	}
}

func TestWiFiHopGatesAdmission(t *testing.T) {
	// A 30 Mbps guarantee: extender 2's PLC could carry it only with
	// r>=30, but user 1's WiFi rates are 15/10 — no extender sustains it.
	_, err := Build(Config{
		Net:      fig3Network(),
		Priority: []Demand{{User: 0, Mbps: 30}},
		Eval:     redistribute,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestBudgetGatesAdmission(t *testing.T) {
	// 40 Mbps on the 60 Mbps link needs 2/3 of the medium; the 0.6
	// budget cannot hold it (the 20 Mbps link's WiFi hop is too slow).
	_, err := Build(Config{
		Net:      fig3Network(),
		Priority: []Demand{{User: 1, Mbps: 40}},
		Eval:     redistribute,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMultipleGuaranteesSharedBudget(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{
			{50, 50},
			{50, 50},
			{10, 10},
		},
		PLCCaps: []float64{100, 100},
	}
	plan, err := Build(Config{
		Net: n,
		Priority: []Demand{
			{User: 0, Mbps: 25},
			{User: 1, Mbps: 25},
		},
		Eval: redistribute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.TotalReserved-0.5) > 1e-9 {
		t.Errorf("total reserved = %v, want 0.5", plan.TotalReserved)
	}
	if plan.Guaranteed[0] != 25 || plan.Guaranteed[1] != 25 {
		t.Errorf("guarantees = %v", plan.Guaranteed)
	}
	// The best-effort user shares what's left (caps scaled by 0.5).
	if plan.BestEffort.Aggregate <= 0 || plan.BestEffort.Aggregate > 10 {
		t.Errorf("best-effort aggregate = %v, want in (0,10]", plan.BestEffort.Aggregate)
	}
}

func TestLargestDemandPlacedFirst(t *testing.T) {
	// Budget fits both demands only if the big one takes the big link.
	n := &model.Network{
		WiFiRates: [][]float64{
			{60, 60},
			{60, 60},
		},
		PLCCaps: []float64{200, 50},
	}
	plan, err := Build(Config{
		Net: n,
		Priority: []Demand{
			{User: 0, Mbps: 10},
			{User: 1, Mbps: 50},
		},
		Eval: redistribute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assign[1] != 0 {
		t.Errorf("large demand on extender %d, want the 200 Mbps link", plan.Assign[1])
	}
}

func TestAllPriorityNoBestEffort(t *testing.T) {
	plan, err := Build(Config{
		Net: fig3Network(),
		Priority: []Demand{
			{User: 0, Mbps: 5},
			{User: 1, Mbps: 5},
		},
		Eval: redistribute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.BestEffort != nil {
		t.Error("no best-effort users, but a best-effort result exists")
	}
	if math.Abs(plan.AggregateMbps()-10) > 1e-9 {
		t.Errorf("aggregate = %v, want 10", plan.AggregateMbps())
	}
}

func TestGuaranteesSurviveRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		numExt := 2 + rng.Intn(3)
		numUsers := 4 + rng.Intn(8)
		caps := make([]float64, numExt)
		for j := range caps {
			caps[j] = 60 + rng.Float64()*140
		}
		rates := make([][]float64, numUsers)
		for i := range rates {
			rates[i] = make([]float64, numExt)
			for j := range rates[i] {
				rates[i][j] = 5 + rng.Float64()*49
			}
		}
		n := &model.Network{WiFiRates: rates, PLCCaps: caps}
		demands := []Demand{{User: 0, Mbps: 2 + rng.Float64()*4}}
		plan, err := Build(Config{Net: n, Priority: demands, Eval: redistribute})
		if errors.Is(err, ErrInfeasible) {
			continue // legitimately rejected
		}
		if err != nil {
			t.Fatal(err)
		}
		// Invariants: reservations within budget, guarantee sustained by
		// the WiFi hop, every user assigned.
		if plan.TotalReserved > 0.6+1e-9 {
			t.Fatalf("trial %d: reserved %v over budget", trial, plan.TotalReserved)
		}
		j := plan.Assign[0]
		if n.WiFiRates[0][j] < plan.Guaranteed[0] {
			t.Fatalf("trial %d: WiFi rate %v below guarantee %v",
				trial, n.WiFiRates[0][j], plan.Guaranteed[0])
		}
		for i, jj := range plan.Assign {
			if jj == model.Unassigned {
				t.Fatalf("trial %d: user %d unassigned", trial, i)
			}
		}
	}
}
