package mobility

import (
	"math"
	"testing"

	"github.com/plcwifi/wolt/internal/topology"
)

func makeTopo(t *testing.T, users int, seed int64) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.Config{
		NumExtenders: 2,
		NumUsers:     users,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestConfigValidation(t *testing.T) {
	topo := makeTopo(t, 2, 1)
	bad := []Config{
		{SpeedMinMps: 0, SpeedMaxMps: 1},
		{SpeedMinMps: 2, SpeedMaxMps: 1},
		{SpeedMinMps: 1, SpeedMaxMps: 2, PauseSec: -1},
	}
	for _, cfg := range bad {
		if _, err := NewFleet(topo, cfg); err == nil {
			t.Errorf("config %+v: want error", cfg)
		}
	}
}

func TestAdvanceValidation(t *testing.T) {
	topo := makeTopo(t, 2, 1)
	fleet, err := NewFleet(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Advance(0); err == nil {
		t.Error("zero dt: want error")
	}
	if err := fleet.Advance(-1); err == nil {
		t.Error("negative dt: want error")
	}
}

func TestWalkersStayOnFloorPlan(t *testing.T) {
	topo := makeTopo(t, 10, 3)
	cfg := DefaultConfig()
	cfg.Seed = 3
	fleet, err := NewFleet(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 100; tick++ {
		if err := fleet.Advance(10); err != nil {
			t.Fatal(err)
		}
		for _, u := range topo.Users {
			if u.Pos.X < 0 || u.Pos.X > topo.Width || u.Pos.Y < 0 || u.Pos.Y > topo.Height {
				t.Fatalf("tick %d: user %d escaped the floor plan: %+v", tick, u.ID, u.Pos)
			}
		}
	}
}

func TestSpeedBound(t *testing.T) {
	// Over a small dt, no walker may travel farther than max speed
	// allows.
	topo := makeTopo(t, 10, 4)
	cfg := DefaultConfig()
	cfg.Seed = 4
	cfg.PauseSec = 0
	fleet, err := NewFleet(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := make(map[int]topology.Point, len(topo.Users))
	for _, u := range topo.Users {
		prev[u.ID] = u.Pos
	}
	const dt = 1.0
	for tick := 0; tick < 50; tick++ {
		if err := fleet.Advance(dt); err != nil {
			t.Fatal(err)
		}
		for _, u := range topo.Users {
			// Crossing a waypoint mid-step can bend the path, so the
			// displacement (chord) is bounded by the path length.
			if d := prev[u.ID].Distance(u.Pos); d > cfg.SpeedMaxMps*dt+1e-9 {
				t.Fatalf("user %d moved %vm in %vs (max speed %v)", u.ID, d, dt, cfg.SpeedMaxMps)
			}
			prev[u.ID] = u.Pos
		}
	}
}

func TestUsersActuallyMove(t *testing.T) {
	topo := makeTopo(t, 5, 5)
	start := make(map[int]topology.Point, len(topo.Users))
	for _, u := range topo.Users {
		start[u.ID] = u.Pos
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	fleet, err := NewFleet(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Advance(60); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, u := range topo.Users {
		if start[u.ID].Distance(u.Pos) > 1 {
			moved++
		}
	}
	if moved < 4 {
		t.Errorf("only %d/5 users moved after 60s", moved)
	}
}

func TestPauseHoldsPosition(t *testing.T) {
	topo := makeTopo(t, 1, 6)
	cfg := Config{SpeedMinMps: 1000, SpeedMaxMps: 1000, PauseSec: 1e9, Seed: 6}
	fleet, err := NewFleet(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The walker reaches its first waypoint almost instantly, then
	// pauses effectively forever.
	if err := fleet.Advance(10); err != nil {
		t.Fatal(err)
	}
	posA, _ := fleet.Position(topo.Users[0].ID)
	if err := fleet.Advance(10); err != nil {
		t.Fatal(err)
	}
	posB, _ := fleet.Position(topo.Users[0].ID)
	if posA.Distance(posB) > 1e-9 {
		t.Errorf("walker moved while pausing: %v -> %v", posA, posB)
	}
}

func TestChurnedUsersTracked(t *testing.T) {
	topo := makeTopo(t, 3, 7)
	cfg := DefaultConfig()
	cfg.Seed = 7
	fleet, err := NewFleet(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one user, add another; Advance must adapt.
	removed := topo.Users[0].ID
	topo.RemoveUser(removed)
	added := 1000 // the 7 generated users hold IDs 0..6
	if err := topo.AddUserWithID(added, topology.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Advance(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := fleet.Position(removed); ok {
		t.Error("removed user still tracked")
	}
	if _, ok := fleet.Position(added); !ok {
		t.Error("added user not tracked")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() []topology.Point {
		topo := makeTopo(t, 6, 8)
		cfg := DefaultConfig()
		cfg.Seed = 8
		fleet, err := NewFleet(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := fleet.Advance(7); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]topology.Point, len(topo.Users))
		for i, u := range topo.Users {
			out[i] = u.Pos
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if math.Abs(a[i].X-b[i].X) > 1e-12 || math.Abs(a[i].Y-b[i].Y) > 1e-12 {
			t.Fatalf("position %d differs across identical runs", i)
		}
	}
}

// Position returns a user's current position.
func (f *Fleet) Position(userID int) (topology.Point, bool) {
	w, ok := f.walkers[userID]
	if !ok {
		return topology.Point{}, false
	}
	return w.pos, true
}
