package strategy

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/plcwifi/wolt/internal/baseline"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/radio"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/topology"
)

// testNetwork builds a deterministic multi-extender network with more
// users than extenders, so WOLT's Phase II actually runs.
func testNetwork(t *testing.T, users, extenders int) *model.Network {
	t.Helper()
	topo, err := topology.Generate(topology.Config{
		Width: 60, Height: 60,
		NumExtenders: extenders, NumUsers: users,
		PLCCapacityMinMbps: 60, PLCCapacityMaxMbps: 160,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rm := radio.DefaultModel()
	n := &model.Network{
		WiFiRates: make([][]float64, users),
		PLCCaps:   topo.PLCCapacities(),
	}
	for i, row := range topo.Distances() {
		n.WiFiRates[i] = make([]float64, len(row))
		for j, d := range row {
			n.WiFiRates[i][j] = rm.LinkRate(d, topo.Users[i].ID, topo.Extenders[j].ID)
		}
	}
	return n
}

func TestRegistryCoversAllStrategies(t *testing.T) {
	want := []string{
		"greedy", "optimal", "random", "rssi", "selfish",
		"wolt", "wolt-alpha", "wolt-anneal", "wolt-coordinate",
		"wolt-hillclimb", "wolt-incremental", "wolt-kopt", "wolt-pf",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		st, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if st.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, st.Name())
		}
	}
}

func TestNewUnknownStrategy(t *testing.T) {
	_, err := New("does-not-exist", Config{})
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("New(unknown) error = %v, want ErrUnknown", err)
	}
}

// TestIncrementalRejectsSearchBudget: wolt-incremental's only budget is
// Budget.Moves; a probe budget asks for a warm hill-climb repair,
// which is wolt-hillclimb, and New says so.
func TestIncrementalRejectsSearchBudget(t *testing.T) {
	for _, b := range []Budget{{Probes: 60}, {Probes: 60, Moves: 3}} {
		_, err := New("wolt-incremental", Config{Budget: b})
		if err == nil || !strings.Contains(err.Error(), "wolt-hillclimb") {
			t.Errorf("New(wolt-incremental, %+v) error = %v, want one naming wolt-hillclimb", b, err)
		}
	}
	if _, err := New("wolt-incremental", Config{Budget: Budget{Moves: 3}}); err != nil {
		t.Errorf("move budget: %v", err)
	}
}

func TestEveryStrategySolves(t *testing.T) {
	n := testNetwork(t, 10, 3)
	for _, name := range Names() {
		var got []Stats
		st, err := New(name, Config{
			ModelOpts: model.Options{Redistribute: true},
			Observer:  func(s Stats) { got = append(got, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		assign, err := st.Solve(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(assign) != n.NumUsers() {
			t.Fatalf("%s: assignment covers %d users, want %d", name, len(assign), n.NumUsers())
		}
		for i, j := range assign {
			if j < 0 || j >= n.NumExtenders() {
				t.Fatalf("%s: user %d assigned to %d", name, i, j)
			}
		}
		if len(got) != 1 {
			t.Fatalf("%s: observer saw %d records, want 1", name, len(got))
		}
		s := got[0]
		if s.Strategy != name || s.Users != n.NumUsers() || s.Extenders != n.NumExtenders() {
			t.Errorf("%s: stats header = %+v", name, s)
		}
	}
}

// TestWOLTStats asserts every phase field of the Stats record for the
// two-phase strategy: timings, Hungarian augmentations, Phase II
// iterations and polish sweeps.
func TestWOLTStats(t *testing.T) {
	n := testNetwork(t, 24, 4)
	var got []Stats
	st, err := New("wolt", Config{Observer: func(s Stats) { got = append(got, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Solve(n); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("observer saw %d records, want 1", len(got))
	}
	s := got[0]
	if s.Phase1 <= 0 {
		t.Errorf("Phase1 = %v, want > 0", s.Phase1)
	}
	if s.Phase2 <= 0 {
		t.Errorf("Phase2 = %v, want > 0", s.Phase2)
	}
	if s.Total < s.Phase1+s.Phase2 {
		t.Errorf("Total = %v < Phase1+Phase2 = %v", s.Total, s.Phase1+s.Phase2)
	}
	if s.Phase1Users != n.NumExtenders() {
		t.Errorf("Phase1Users = %d, want %d (one per extender)", s.Phase1Users, n.NumExtenders())
	}
	if s.HungarianAugmentations < n.NumExtenders() {
		t.Errorf("HungarianAugmentations = %d, want >= %d", s.HungarianAugmentations, n.NumExtenders())
	}
	if s.Phase2Iterations <= 0 {
		t.Errorf("Phase2Iterations = %d, want > 0", s.Phase2Iterations)
	}
	if s.PolishSweeps <= 0 {
		t.Errorf("PolishSweeps = %d, want > 0", s.PolishSweeps)
	}
	if s.Evaluations != 0 {
		t.Errorf("Evaluations = %d, want 0 (WOLT does not probe the eval model)", s.Evaluations)
	}
}

// TestEvaluationCounting asserts the Evaluations field for the
// evaluation-driven strategies.
func TestEvaluationCounting(t *testing.T) {
	n := testNetwork(t, 6, 3)
	for _, name := range []string{"greedy", "selfish", "optimal"} {
		var got []Stats
		st, err := New(name, Config{
			ModelOpts: model.Options{Redistribute: true},
			Observer:  func(s Stats) { got = append(got, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Solve(n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got[0].Evaluations <= 0 {
			t.Errorf("%s: Evaluations = %d, want > 0", name, got[0].Evaluations)
		}
	}
}

func TestStrategiesMatchDirectAlgorithms(t *testing.T) {
	n := testNetwork(t, 8, 3)
	opts := model.Options{Redistribute: true}

	solve := func(name string) model.Assignment {
		st, err := New(name, Config{ModelOpts: opts})
		if err != nil {
			t.Fatal(err)
		}
		assign, err := st.Solve(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return assign
	}

	if want, _ := baseline.RSSIByRate(n); !reflect.DeepEqual(solve("rssi"), want) {
		t.Error("rssi strategy diverges from baseline.RSSIByRate")
	}
	if want, _ := baseline.Greedy(n, nil, opts); !reflect.DeepEqual(solve("greedy"), want) {
		t.Error("greedy strategy diverges from baseline.Greedy")
	}
	if want, _ := baseline.Selfish(n, nil, opts); !reflect.DeepEqual(solve("selfish"), want) {
		t.Error("selfish strategy diverges from baseline.Selfish")
	}
	if want, _, _ := baseline.Optimal(n, opts); !reflect.DeepEqual(solve("optimal"), want) {
		t.Error("optimal strategy diverges from baseline.Optimal")
	}
	if want, _ := baseline.Random(n, seed.Rand(0, seed.StrategyRand, 0)); !reflect.DeepEqual(solve("random"), want) {
		t.Error("random strategy diverges from baseline.Random on the same derived rng")
	}
}

// TestRepeatedSolvesDeterministic checks the scratch discipline: reusing
// one instance across solves yields identical results, and a fresh
// instance agrees (scratch contents never influence results).
func TestRepeatedSolvesDeterministic(t *testing.T) {
	n := testNetwork(t, 20, 4)
	for _, name := range Names() {
		if name == "optimal" {
			continue // 4^20 exceeds the exhaustive bound
		}
		st, err := New(name, Config{ModelOpts: model.Options{Redistribute: true}, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		first, err := st.Solve(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "random" {
			continue // repeated random draws differ by design
		}
		second, err := st.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: repeated solve on one instance diverged", name)
		}
		fresh, err := New(name, Config{ModelOpts: model.Options{Redistribute: true}, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		third, err := fresh.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, third) {
			t.Errorf("%s: fresh instance diverged from reused instance", name)
		}
	}
}

func TestOnlineAndReassignerForms(t *testing.T) {
	online := map[string]bool{
		"greedy": true, "selfish": true, "rssi": true, "random": true,
		"wolt-hillclimb": true, "wolt-kopt": true, "wolt-anneal": true,
	}
	reassigner := map[string]bool{
		"wolt": true, "wolt-coordinate": true,
		"wolt-pf": true, "wolt-alpha": true,
		"wolt-incremental": true, "rssi": true,
		"wolt-hillclimb": true, "wolt-kopt": true, "wolt-anneal": true,
	}
	for _, name := range Names() {
		st, err := New(name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.(Online); ok != online[name] {
			t.Errorf("%s: Online = %v, want %v", name, ok, online[name])
		}
		if _, ok := st.(Reassigner); ok != reassigner[name] {
			t.Errorf("%s: Reassigner = %v, want %v", name, ok, reassigner[name])
		}
	}
	// The exhaustive strategy is the offline-only case ErrNoOnlineForm
	// exists for.
	st, err := New("optimal", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(Online); ok {
		t.Error("optimal should not have an online form")
	}
}

// TestReassignEditsPrevInPlace pins the Reassigner contract for every
// registry strategy that has the form: the new association is written
// into prev and prev itself is returned; a prev that does not cover the
// network is an error that leaves prev untouched.
func TestReassignEditsPrevInPlace(t *testing.T) {
	n := testNetwork(t, 12, 3)
	start, err := baseline.RSSIByRate(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		st, err := New(name, Config{ModelOpts: model.Options{Redistribute: true}})
		if err != nil {
			t.Fatal(err)
		}
		re, ok := st.(Reassigner)
		if !ok {
			continue
		}
		prev := start.Clone()
		got, err := re.Reassign(n, prev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(prev) || &got[0] != &prev[0] {
			t.Errorf("%s: Reassign returned a new slice, want prev edited in place", name)
		}
		short := start[:len(start)-1].Clone()
		if _, err := re.Reassign(n, short); err == nil {
			t.Errorf("%s: Reassign accepted a prev covering %d of %d users", name, len(short), n.NumUsers())
		}
		if !slices.Equal(short, start[:len(start)-1]) {
			t.Errorf("%s: failed Reassign edited prev: %v", name, short)
		}
	}
}

func TestGreedyAddMatchesBaseline(t *testing.T) {
	n := testNetwork(t, 6, 3)
	opts := model.Options{Redistribute: true}
	st, err := New("greedy", Config{ModelOpts: opts})
	if err != nil {
		t.Fatal(err)
	}
	on := st.(Online)

	got := make(model.Assignment, n.NumUsers())
	want := make(model.Assignment, n.NumUsers())
	for i := range got {
		got[i], want[i] = model.Unassigned, model.Unassigned
	}
	for i := 0; i < n.NumUsers(); i++ {
		gj, err := on.Add(n, got, i)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := baseline.GreedyAdd(n, want, i, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gj != wj {
			t.Fatalf("user %d: strategy placed on %d, baseline on %d", i, gj, wj)
		}
	}
}

func TestIncrementalRespectsBudget(t *testing.T) {
	n := testNetwork(t, 18, 4)
	opts := model.Options{Redistribute: true}

	rssiStart, err := baseline.RSSIByRate(n)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2
	var got []Stats
	st, err := New("wolt-incremental", Config{
		ModelOpts: opts,
		Budget:    Budget{Moves: budget},
		Observer:  func(s Stats) { got = append(got, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := st.(Reassigner).Reassign(n, rssiStart.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if moved := rssiStart.Diff(next); moved > budget {
		t.Fatalf("incremental moved %d users, budget %d", moved, budget)
	}
	if len(got) != 1 {
		t.Fatalf("observer saw %d records, want 1", len(got))
	}
	// The Reassign stats carry the inner target solve's phases plus the
	// candidate evaluations of the greedy move search.
	if got[0].Phase1 <= 0 || got[0].Evaluations <= 0 {
		t.Errorf("incremental stats = %+v, want Phase1 > 0 and Evaluations > 0", got[0])
	}
}
