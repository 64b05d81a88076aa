package control

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// slotLayoutConfigs are the policies whose output must not depend on
// where a user's row sits: the two-phase solve, the warm hill climb with
// placement joins and a periodic full repair, and the two online
// baselines. Only the warm policies' configs leave ReassignOnLeave off:
// a leave-time repair runs on the population without the churned user,
// which differs between the two engines (checkSlotLayout).
var slotLayoutConfigs = []EngineConfig{
	{Policy: "wolt", ReassignOnLeave: true},
	{Policy: "wolt-hillclimb", Budget: strategy.Budget{Probes: 60}, PlacementOnlyJoins: true, FullResolveEvery: 4},
	{Policy: "greedy"},
	{Policy: PolicyRSSI, ReassignOnLeave: true},
}

// pinnedUsers are the users checkSlotLayout churns to lay the two
// engines' rows out differently: each reaches one owned extender, so
// every policy puts it back where it was.
const pinnedUsers = 4

// checkSlotLayout drives two engines through one stream of joins,
// updates and leaves, with every fifth step a layout step: engine a
// makes one pinned user leave and rejoin with its scan, and engine b
// another. A leave moves the last row into the freed one and a rejoin
// appends, so the two user tables end up in different row orders while
// holding the same users, scans and associations. Every other step
// must return identical errors and directives from both, and the two
// final assignments must be equal. Now and then engine b's network is
// invalidated, so everything behind its policy rebuilds from its row
// order.
func checkSlotLayout(t *testing.T, cfg EngineConfig, seedVal int64, steps int) (differed bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seedVal))
	caps := []float64{60, 20, 40, 30, 50, 25}
	cfg.PLCCaps = caps
	if rng.Intn(2) == 0 {
		cfg.Owned = []int{0, 2, 3, 5}
	}
	cfg.Seed = seedVal
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owned := a.Owned()
	scan := func(avoid int) ([]float64, []float64) {
		rates := make([]float64, len(caps))
		rssi := make([]float64, len(caps))
		for g := range rates {
			if rng.Intn(4) != 0 {
				rates[g] = 5 + float64(rng.Intn(50))
				rssi[g] = -40 - float64(rng.Intn(50))
			}
		}
		rates[owned[rng.Intn(len(owned))]] = 5 + float64(rng.Intn(50))
		if avoid != model.Unassigned && rng.Intn(3) == 0 {
			rates[avoid] = 0 // roam off the current extender
		}
		if rng.Intn(3) == 0 {
			rssi = nil
		}
		return rates, rssi
	}
	const idSpace = 40
	type report struct{ rates, rssi []float64 }
	pinned := make([]report, pinnedUsers)
	for p := range pinned {
		pinned[p].rates = make([]float64, len(caps))
		pinned[p].rates[owned[rng.Intn(len(owned))]] = 5 + float64(rng.Intn(50))
		for _, e := range []*Engine{a, b} {
			if _, err := e.Join(idSpace+p, pinned[p].rates, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn := func(e *Engine, p int) {
		t.Helper()
		e.Leave(idSpace + p)
		if _, err := e.Join(idSpace+p, pinned[p].rates, pinned[p].rssi); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < steps; s++ {
		if s%5 == 4 {
			pa := rng.Intn(pinnedUsers)
			pb := (pa + 1 + rng.Intn(pinnedUsers-1)) % pinnedUsers
			churn(a, pa)
			churn(b, pb)
			if !slices.Equal(rowIDs(a), rowIDs(b)) {
				differed = true
			}
			requireSameAssignment(t, s, a, b)
			continue
		}
		if rng.Intn(6) == 0 {
			// Engine b rebuilds everything behind its policy from its
			// own row order.
			b.mu.Lock()
			b.net.Invalidate()
			b.mu.Unlock()
		}
		id := rng.Intn(idSpace)
		cur, _ := a.Extender(id)
		var dirsA, dirsB []Directive
		var errA, errB error
		switch k := rng.Intn(10); {
		case k < 4:
			rates, rssi := scan(model.Unassigned)
			dirsA, errA = a.Join(id, rates, rssi)
			dirsB, errB = b.Join(id, rates, rssi)
		case k < 7:
			rates, rssi := scan(cur)
			dirsA, errA = a.Update(id, rates, rssi)
			dirsB, errB = b.Update(id, rates, rssi)
		default:
			var okA, okB bool
			dirsA, okA = a.Leave(id)
			dirsB, okB = b.Leave(id)
			if okA != okB {
				t.Fatalf("step %d: leave(%d) present %v vs %v", s, id, okA, okB)
			}
		}
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("step %d: user %d: error %v vs %v", s, id, errA, errB)
		}
		if !reflect.DeepEqual(dirsA, dirsB) {
			t.Fatalf("step %d: user %d: directives %v vs %v", s, id, dirsA, dirsB)
		}
	}
	requireSameAssignment(t, steps, a, b)
	return differed
}

// rowIDs returns the engine's user IDs in row order.
func rowIDs(e *Engine) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]int, len(e.rows))
	for i := range ids {
		ids[i] = e.net.Key(i)
	}
	return ids
}

// requireSameAssignment requires the two engines' assignments to be
// equal.
func requireSameAssignment(t *testing.T, step int, a, b *Engine) {
	t.Helper()
	if sa, sb := a.Stats().Assignment, b.Stats().Assignment; !reflect.DeepEqual(sa, sb) {
		t.Fatalf("step %d: assignment %v vs %v", step, sa, sb)
	}
}

// FuzzEngineSlotLayout: two engines that hold the same users in
// different row orders emit the same directive streams and end with the
// same assignment, under every layout config, with and without
// Redistribute.
func FuzzEngineSlotLayout(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seedVal int64, sel uint8) {
		cfg := slotLayoutConfigs[int(sel)%len(slotLayoutConfigs)]
		cfg.ModelOpts.Redistribute = sel/uint8(len(slotLayoutConfigs))%2 == 0
		if !checkSlotLayout(t, cfg, seedVal, 80) {
			t.Fatal("the two engines never laid their rows out differently")
		}
	})
}
