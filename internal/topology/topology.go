// Package topology models the physical layout of an enterprise PLC-WiFi
// deployment: a rectangular floor plan, power outlets into which PLC-WiFi
// extenders are plugged, and user (client) positions.
//
// The paper's simulation setting (§V-A) is a 100 m × 100 m plane with up to
// 15 extenders and two hundred users placed uniformly at random; this
// package generates such topologies deterministically from a seed.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/plcwifi/wolt/internal/seed"
)

// Point is a position on the floor plan in meters.
type Point struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance between two points in meters.
func (p Point) Distance(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Extender is a PLC-WiFi extender plugged into a power outlet.
type Extender struct {
	ID  int
	Pos Point
	// PLCCapacityMbps is the isolation capacity of the extender's PLC
	// backhaul link to the central unit (the paper's c_j): the maximum
	// throughput the link sustains when no other extender is active.
	PLCCapacityMbps float64
}

// User is a WiFi client.
type User struct {
	ID  int
	Pos Point
}

// Topology is a complete physical layout.
type Topology struct {
	Width     float64 // meters
	Height    float64 // meters
	Extenders []Extender
	Users     []User
}

// Config controls random topology generation.
type Config struct {
	Width  float64 // plane width in meters (default 100)
	Height float64 // plane height in meters (default 100)

	NumExtenders int
	NumUsers     int

	// PLCCapacityMinMbps and PLCCapacityMaxMbps bound the uniformly drawn
	// isolation capacities of the PLC links. The defaults (60, 160) match
	// the spread measured from real outlets in the paper's Fig 2b.
	PLCCapacityMinMbps float64
	PLCCapacityMaxMbps float64

	Seed int64
}

// Default values applied by Generate when the corresponding Config fields
// are zero.
const (
	DefaultWidth          = 100.0
	DefaultHeight         = 100.0
	DefaultPLCCapacityMin = 60.0
	DefaultPLCCapacityMax = 160.0
)

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = DefaultWidth
	}
	if c.Height == 0 {
		c.Height = DefaultHeight
	}
	if c.PLCCapacityMinMbps == 0 {
		c.PLCCapacityMinMbps = DefaultPLCCapacityMin
	}
	if c.PLCCapacityMaxMbps == 0 {
		c.PLCCapacityMaxMbps = DefaultPLCCapacityMax
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("topology: non-positive plane %vx%v", c.Width, c.Height)
	}
	if c.NumExtenders <= 0 {
		return fmt.Errorf("topology: need at least one extender, got %d", c.NumExtenders)
	}
	if c.NumUsers < 0 {
		return fmt.Errorf("topology: negative user count %d", c.NumUsers)
	}
	if c.PLCCapacityMinMbps <= 0 || c.PLCCapacityMaxMbps < c.PLCCapacityMinMbps {
		return fmt.Errorf("topology: bad PLC capacity range [%v,%v]",
			c.PLCCapacityMinMbps, c.PLCCapacityMaxMbps)
	}
	return nil
}

// Generate builds a random topology from the configuration. The same seed
// always yields the same topology.
func Generate(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := seed.Root(cfg.Seed)

	topo := &Topology{
		Width:     cfg.Width,
		Height:    cfg.Height,
		Extenders: make([]Extender, cfg.NumExtenders),
		Users:     make([]User, cfg.NumUsers),
	}
	for j := range topo.Extenders {
		topo.Extenders[j] = Extender{
			ID:              j,
			Pos:             randomPoint(rng, cfg.Width, cfg.Height),
			PLCCapacityMbps: uniform(rng, cfg.PLCCapacityMinMbps, cfg.PLCCapacityMaxMbps),
		}
	}
	for i := range topo.Users {
		topo.Users[i] = User{
			ID:  i,
			Pos: randomPoint(rng, cfg.Width, cfg.Height),
		}
	}
	return topo, nil
}

// AddUserWithID appends a user with a caller-chosen ID. It returns an
// error if the ID is already present. Used by trace replay, where user
// IDs are owned by the workload generator.
func (t *Topology) AddUserWithID(id int, pos Point) error {
	if _, ok := t.UserByID(id); ok {
		return fmt.Errorf("topology: user ID %d already present", id)
	}
	t.Users = append(t.Users, User{ID: id, Pos: pos})
	return nil
}

// RandomPoint draws a uniform position on the floor plan.
func (t *Topology) RandomPoint(rng *rand.Rand) Point {
	return randomPoint(rng, t.Width, t.Height)
}

// RemoveUser deletes the user with the given ID. It reports whether a user
// was removed.
func (t *Topology) RemoveUser(id int) bool {
	for i, u := range t.Users {
		if u.ID == id {
			t.Users = append(t.Users[:i], t.Users[i+1:]...)
			return true
		}
	}
	return false
}

// UserByID returns the user with the given ID.
func (t *Topology) UserByID(id int) (User, bool) {
	for _, u := range t.Users {
		if u.ID == id {
			return u, true
		}
	}
	return User{}, false
}

// Distances returns a |Users| × |Extenders| matrix of user-extender
// distances in meters, indexed by position in the Users and Extenders
// slices (not by ID).
func (t *Topology) Distances() [][]float64 {
	d := make([][]float64, len(t.Users))
	for i, u := range t.Users {
		row := make([]float64, len(t.Extenders))
		for j, e := range t.Extenders {
			row[j] = u.Pos.Distance(e.Pos)
		}
		d[i] = row
	}
	return d
}

// PLCCapacities returns the isolation capacities c_j of all extenders in
// extender order.
func (t *Topology) PLCCapacities() []float64 {
	cs := make([]float64, len(t.Extenders))
	for j, e := range t.Extenders {
		cs[j] = e.PLCCapacityMbps
	}
	return cs
}

func randomPoint(rng *rand.Rand, w, h float64) Point {
	return Point{X: rng.Float64() * w, Y: rng.Float64() * h}
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}
