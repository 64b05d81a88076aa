package baseline

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

func fig3Network() *model.Network {
	return &model.Network{
		WiFiRates: [][]float64{
			{15, 10},
			{40, 20},
		},
		PLCCaps: []float64{60, 20},
	}
}

var redistribute = model.Options{Redistribute: true}

func TestRSSIFig3(t *testing.T) {
	// Both users see extender 1 strongest (Fig 3b): aggregate 22 Mbps.
	n := fig3Network()
	assign, err := RSSIByRate(n)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || assign[1] != 0 {
		t.Fatalf("assign = %v, want [0 0]", assign)
	}
	agg := model.Aggregate(n, assign, redistribute)
	if math.Abs(agg-240.0/11.0) > 1e-9 {
		t.Errorf("aggregate = %v, want 240/11", agg)
	}
}

func TestRSSIExplicitSignal(t *testing.T) {
	n := fig3Network()
	// Signal says extender 2 is stronger for both users.
	signal := [][]float64{
		{-70, -40},
		{-70, -40},
	}
	assign, err := RSSI(n, signal)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 1 {
		t.Errorf("assign = %v, want [1 1]", assign)
	}
}

func TestRSSISkipsUnreachable(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{{0, 5}},
		PLCCaps:   []float64{100, 100},
	}
	// Extender 1 has the stronger signal but is unreachable.
	assign, err := RSSI(n, [][]float64{{-30, -60}})
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 {
		t.Errorf("assign = %v, want [1]", assign)
	}
}

func TestRSSIErrors(t *testing.T) {
	n := fig3Network()
	if _, err := RSSI(n, [][]float64{{-30, -60}}); err == nil {
		t.Error("short signal matrix: want error")
	}
	if _, err := RSSI(n, [][]float64{{-30}, {-30}}); err == nil {
		t.Error("ragged signal matrix: want error")
	}
	unreachable := &model.Network{
		WiFiRates: [][]float64{{0, 0}},
		PLCCaps:   []float64{10, 10},
	}
	if _, err := RSSI(unreachable, [][]float64{{-30, -30}}); err == nil {
		t.Error("no reachable extender: want error")
	}
}

func TestGreedyFig3(t *testing.T) {
	// The paper's Fig 3c: user 1 picks extender 1 (15 > 10), then user 2
	// picks extender 2 (total 30 beats 22). Leftover redistribution gives
	// 15+15.
	n := fig3Network()
	assign, err := Greedy(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || assign[1] != 1 {
		t.Fatalf("assign = %v, want [0 1]", assign)
	}
	agg := model.Aggregate(n, assign, redistribute)
	if math.Abs(agg-30) > 1e-9 {
		t.Errorf("aggregate = %v, want 30", agg)
	}
}

func TestGreedyOrderMatters(t *testing.T) {
	// Reversing arrival order changes greedy's outcome: user 2 first
	// grabs extender 1 (min(40,60)=40), then user 1 compares joining
	// extender 1 vs extender 2.
	n := fig3Network()
	assign, err := Greedy(n, []int{1, 0}, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != 0 {
		t.Errorf("first arrival went to %d, want 0", assign[1])
	}
	// Either way the result is a valid complete assignment.
	if assign.NumAssigned() != 2 {
		t.Errorf("incomplete assignment %v", assign)
	}
}

func TestGreedyBadOrders(t *testing.T) {
	n := fig3Network()
	tests := []struct {
		name  string
		order []int
	}{
		{name: "short", order: []int{0}},
		{name: "duplicate", order: []int{0, 0}},
		{name: "out of range", order: []int{0, 7}},
		{name: "negative", order: []int{-1, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Greedy(n, tt.order, redistribute); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestGreedyAddIncremental(t *testing.T) {
	n := fig3Network()
	assign := model.Assignment{model.Unassigned, model.Unassigned}
	j, err := GreedyAdd(n, assign, 0, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 {
		t.Errorf("user 0 placed on %d, want 0", j)
	}
	j, err = GreedyAdd(n, assign, 1, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if j != 1 {
		t.Errorf("user 1 placed on %d, want 1", j)
	}
	if _, err := GreedyAdd(n, assign, 9, redistribute); err == nil {
		t.Error("out-of-range user: want error")
	}
}

func TestOptimalFig3(t *testing.T) {
	n := fig3Network()
	assign, agg, err := Optimal(n, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg-40) > 1e-9 {
		t.Errorf("optimal aggregate = %v, want 40", agg)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Errorf("assign = %v, want [1 0]", assign)
	}
}

func TestOptimalDominatesGreedyAndRSSI(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(2), 2+rng.Intn(4))
		_, opt, err := Optimal(n, redistribute)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Greedy(n, nil, redistribute)
		if err != nil {
			t.Fatal(err)
		}
		rssi, err := RSSIByRate(n)
		if err != nil {
			t.Fatal(err)
		}
		if g := model.Aggregate(n, greedy, redistribute); g > opt+1e-9 {
			t.Errorf("trial %d: greedy %v beats optimal %v", trial, g, opt)
		}
		if r := model.Aggregate(n, rssi, redistribute); r > opt+1e-9 {
			t.Errorf("trial %d: RSSI %v beats optimal %v", trial, r, opt)
		}
	}
}

func TestOptimalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := randomNetwork(rng, 10, 30) // 10^30 states
	if _, _, err := Optimal(n, redistribute); err == nil {
		t.Error("want budget error for huge instance")
	}
}

func TestRandomAssignsReachable(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{
			{0, 10, 20},
			{5, 0, 0},
		},
		PLCCaps: []float64{50, 50, 50},
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		assign, err := Random(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range assign {
			if n.WiFiRates[i][j] <= 0 {
				t.Fatalf("user %d randomly placed on unreachable extender %d", i, j)
			}
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	n := randomNetwork(rand.New(rand.NewSource(1)), 4, 10)
	a, err := Random(n, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(n, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Diff(b) != 0 {
		t.Error("same seed produced different random assignments")
	}
}

func randomNetwork(rng *rand.Rand, numExt, numUsers int) *model.Network {
	caps := make([]float64, numExt)
	for j := range caps {
		caps[j] = 20 + rng.Float64()*140
	}
	rates := make([][]float64, numUsers)
	for i := range rates {
		rates[i] = make([]float64, numExt)
		for j := range rates[i] {
			rates[i][j] = 1 + rng.Float64()*53
		}
	}
	return &model.Network{WiFiRates: rates, PLCCaps: caps}
}

func TestSelfishFig3(t *testing.T) {
	// On the paper's Fig 3 example, selfish and aggregate greedy
	// coincide: user 2 prefers extender 2 for its own 15 Mbps.
	n := fig3Network()
	assign, err := Selfish(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || assign[1] != 1 {
		t.Fatalf("assign = %v, want [0 1]", assign)
	}
	if agg := model.Aggregate(n, assign, redistribute); math.Abs(agg-30) > 1e-9 {
		t.Errorf("aggregate = %v, want 30", agg)
	}
}

func TestSelfishSlowUserPoisonsBestCell(t *testing.T) {
	// A slow late arrival maximizes its own share by joining the cell
	// with the best per-user throughput — the fast cell — dragging the
	// aggregate below what the aggregate-greedy achieves. This is the
	// divergence between the paper's §III-B and §V-B greedy readings.
	n := &model.Network{
		WiFiRates: [][]float64{
			{54, 1},  // fast user, lives on extender 0
			{1, 12},  // medium user, lives on extender 1
			{6, 2.9}, // slow late arrival
		},
		PLCCaps: []float64{1000, 1000},
	}
	selfish, err := Selfish(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if selfish[2] != 0 {
		t.Fatalf("selfish user joined %d, want the fast cell 0 (assign %v)", selfish[2], selfish)
	}
	greedy, err := Greedy(n, nil, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if greedy[2] != 1 {
		t.Fatalf("aggregate greedy joined %d, want the medium cell 1 (assign %v)", greedy[2], greedy)
	}
	sAgg := model.Aggregate(n, selfish, redistribute)
	gAgg := model.Aggregate(n, greedy, redistribute)
	if sAgg >= gAgg {
		t.Errorf("selfish aggregate %v not below greedy %v", sAgg, gAgg)
	}
}

func TestSelfishBadOrder(t *testing.T) {
	if _, err := Selfish(fig3Network(), []int{0}, redistribute); err == nil {
		t.Error("short order: want error")
	}
}

func TestSelfishAddErrors(t *testing.T) {
	n := fig3Network()
	assign := model.Assignment{model.Unassigned, model.Unassigned}
	if _, err := SelfishAdd(n, assign, 5, redistribute); err == nil {
		t.Error("out-of-range user: want error")
	}
}

func TestOptimalLimitGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	// 24 users over 2 extenders: under the state budget (2^24 ≈ 1.7e7)
	// but over the 16-user bound.
	n := randomNetwork(rng, 2, 24)
	_, _, err := Optimal(n, redistribute)
	if err == nil {
		t.Fatal("want user-bound error for 24 users")
	}
	if !strings.Contains(err.Error(), "24 users exceeds the 16-user bound") {
		t.Errorf("user-bound error = %q, want the bound named", err)
	}

	// 20 extenders over 5 users: under the state budget (20^5 = 3.2e6)
	// but over the 16-extender bound.
	n = randomNetwork(rng, 20, 5)
	_, _, err = Optimal(n, redistribute)
	if err == nil {
		t.Fatal("want extender-bound error for 20 extenders")
	}
	if !strings.Contains(err.Error(), "20 extenders exceeds the 16-extender bound") {
		t.Errorf("extender-bound error = %q, want the bound named", err)
	}

	// Raising the bounds deliberately admits the same instances.
	wide := OptimalLimits{MaxUsers: 32, MaxExtenders: 32}
	n = randomNetwork(rng, 3, 13) // 3^13 ≈ 1.6e6 states
	if _, _, err := OptimalBounded(n, redistribute, wide); err != nil {
		t.Errorf("OptimalBounded with raised limits: %v", err)
	}

	// ... but the state budget still applies through custom limits.
	tight := OptimalLimits{MaxUsers: 64, MaxExtenders: 16, MaxStates: 1000}
	n = randomNetwork(rng, 4, 6) // 4^6 = 4096 > 1000
	_, _, err = OptimalBounded(n, redistribute, tight)
	if err == nil || !strings.Contains(err.Error(), "brute-force budget") {
		t.Errorf("state-budget error = %v, want a brute-force-budget failure", err)
	}
}

func TestStrongest(t *testing.T) {
	rates := []float64{0, 20, 40, 40}
	for _, tc := range []struct {
		name   string
		signal []float64
		want   int
	}{
		{"nil signal ranks by rate, tie to lowest index", nil, 2},
		{"explicit signal", []float64{-30, -40, -60, -50}, 1},
		{"unreachable skipped despite strongest signal", []float64{-10, -60, -50, -50}, 2},
	} {
		if got := Strongest(rates, tc.signal); got != tc.want {
			t.Errorf("%s: Strongest = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := Strongest([]float64{0, 0}, nil); got != model.Unassigned {
		t.Errorf("no reachable extender: Strongest = %d, want Unassigned", got)
	}
}
