package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{name: "same point", p: Point{1, 1}, q: Point{1, 1}, want: 0},
		{name: "3-4-5", p: Point{0, 0}, q: Point{3, 4}, want: 5},
		{name: "axis", p: Point{0, 0}, q: Point{0, 7}, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Distance(tt.q); got != tt.want {
				t.Errorf("Distance = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistanceIsSymmetric(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		if anyBad(x1, y1, x2, y2) {
			return true
		}
		// Keep coordinates floor-plan sized so the squared terms cannot
		// overflow.
		x1, y1 = math.Mod(x1, 1e4), math.Mod(y1, 1e4)
		x2, y2 = math.Mod(x2, 1e4), math.Mod(y2, 1e4)
		p, q := Point{x1, y1}, Point{x2, y2}
		return math.Abs(p.Distance(q)-q.Distance(p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{NumExtenders: 5, NumUsers: 20, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Extenders {
		if a.Extenders[j] != b.Extenders[j] {
			t.Fatalf("extender %d differs across identical seeds", j)
		}
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			t.Fatalf("user %d differs across identical seeds", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	a, err := Generate(Config{NumExtenders: 3, NumUsers: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{NumExtenders: 3, NumUsers: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical user placements")
	}
}

func TestGenerateBoundsAndCapacities(t *testing.T) {
	topo, err := Generate(Config{NumExtenders: 15, NumUsers: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Extenders) != 15 || len(topo.Users) != 200 {
		t.Fatalf("got %d extenders, %d users", len(topo.Extenders), len(topo.Users))
	}
	for _, e := range topo.Extenders {
		if e.Pos.X < 0 || e.Pos.X > DefaultWidth || e.Pos.Y < 0 || e.Pos.Y > DefaultHeight {
			t.Errorf("extender %d out of bounds: %+v", e.ID, e.Pos)
		}
		if e.PLCCapacityMbps < DefaultPLCCapacityMin || e.PLCCapacityMbps > DefaultPLCCapacityMax {
			t.Errorf("extender %d PLC capacity %v outside [%v,%v]",
				e.ID, e.PLCCapacityMbps, DefaultPLCCapacityMin, DefaultPLCCapacityMax)
		}
	}
	for _, u := range topo.Users {
		if u.Pos.X < 0 || u.Pos.X > DefaultWidth || u.Pos.Y < 0 || u.Pos.Y > DefaultHeight {
			t.Errorf("user %d out of bounds: %+v", u.ID, u.Pos)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "no extenders", cfg: Config{NumUsers: 3}},
		{name: "negative users", cfg: Config{NumExtenders: 1, NumUsers: -1}},
		{name: "bad capacity range", cfg: Config{NumExtenders: 1, PLCCapacityMinMbps: 100, PLCCapacityMaxMbps: 50}},
		{name: "negative plane", cfg: Config{NumExtenders: 1, Width: -5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestAddRemoveUser(t *testing.T) {
	topo, err := Generate(Config{NumExtenders: 2, NumUsers: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	id := topo.AddUser(Point{X: 1, Y: 2})
	if id != 3 {
		t.Errorf("AddUser ID = %d, want 3", id)
	}
	if len(topo.Users) != 4 {
		t.Fatalf("user count = %d, want 4", len(topo.Users))
	}
	u, ok := topo.UserByID(id)
	if !ok || u.Pos != (Point{X: 1, Y: 2}) {
		t.Errorf("UserByID(%d) = %+v, %v", id, u, ok)
	}
	if !topo.RemoveUser(1) {
		t.Error("RemoveUser(1) = false, want true")
	}
	if topo.RemoveUser(999) {
		t.Error("RemoveUser(999) = true, want false")
	}
	if _, ok := topo.UserByID(1); ok {
		t.Error("user 1 still present after removal")
	}
	// Fresh IDs are never reused even after removals.
	id2 := topo.AddUser(topo.RandomPoint(rand.New(rand.NewSource(1))))
	if id2 != 4 {
		t.Errorf("AddUser ID = %d, want 4", id2)
	}
}

func TestDistancesMatrix(t *testing.T) {
	topo := &Topology{
		Width:  10,
		Height: 10,
		Extenders: []Extender{
			{ID: 0, Pos: Point{0, 0}},
			{ID: 1, Pos: Point{3, 4}},
		},
		Users: []User{
			{ID: 0, Pos: Point{0, 0}},
		},
	}
	d := topo.Distances()
	if len(d) != 1 || len(d[0]) != 2 {
		t.Fatalf("matrix shape %dx%d, want 1x2", len(d), len(d[0]))
	}
	if d[0][0] != 0 || d[0][1] != 5 {
		t.Errorf("distances = %v, want [0 5]", d[0])
	}
}

func TestPLCCapacities(t *testing.T) {
	topo := &Topology{
		Extenders: []Extender{
			{ID: 0, PLCCapacityMbps: 60},
			{ID: 1, PLCCapacityMbps: 160},
		},
	}
	cs := topo.PLCCapacities()
	if len(cs) != 2 || cs[0] != 60 || cs[1] != 160 {
		t.Errorf("PLCCapacities = %v", cs)
	}
}

// AddUser appends a user at the given position and returns its ID.
func (t *Topology) AddUser(pos Point) int {
	id := t.nextUserID()
	t.Users = append(t.Users, User{ID: id, Pos: pos})
	return id
}

func (t *Topology) nextUserID() int {
	next := 0
	for _, u := range t.Users {
		if u.ID >= next {
			next = u.ID + 1
		}
	}
	return next
}
