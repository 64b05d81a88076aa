// Package mobility implements the random-waypoint model for user motion
// on the floor plan: each user walks toward a uniformly drawn waypoint
// at a per-leg speed, pauses, then picks the next waypoint. Mobility
// changes user-extender distances and therefore WiFi rates over time,
// which is what makes periodic re-association (and the incremental
// re-association extension) matter in deployments.
package mobility

import (
	"fmt"
	"math/rand"

	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/topology"
)

// Config parameterizes the random-waypoint model.
type Config struct {
	// SpeedMinMps and SpeedMaxMps bound the uniformly drawn walking
	// speed per leg (meters per second). Typical pedestrian values are
	// 0.5–1.5 m/s.
	SpeedMinMps float64
	SpeedMaxMps float64
	// PauseSec is the pause duration at each waypoint.
	PauseSec float64
	Seed     int64
}

// DefaultConfig returns pedestrian motion: 0.5–1.5 m/s with 5 s pauses.
func DefaultConfig() Config {
	return Config{
		SpeedMinMps: 0.5,
		SpeedMaxMps: 1.5,
		PauseSec:    5,
	}
}

func (c Config) validate() error {
	if c.SpeedMinMps <= 0 || c.SpeedMaxMps < c.SpeedMinMps {
		return fmt.Errorf("mobility: bad speed range [%v,%v]", c.SpeedMinMps, c.SpeedMaxMps)
	}
	if c.PauseSec < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.PauseSec)
	}
	return nil
}

// Walker is one user's motion state.
type Walker struct {
	pos      topology.Point
	waypoint topology.Point
	speed    float64
	pausing  float64 // remaining pause time
}

// Fleet animates every user of a topology. It mutates the topology's
// user positions in place on Advance, so instances rebuilt from the
// topology see the new geometry.
type Fleet struct {
	cfg     Config
	topo    *topology.Topology
	rng     *rand.Rand
	walkers map[int]*Walker // keyed by user ID
}

// NewFleet builds walkers for every current user of the topology.
func NewFleet(topo *topology.Topology, cfg Config) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:     cfg,
		topo:    topo,
		rng:     seed.Root(cfg.Seed),
		walkers: make(map[int]*Walker, len(topo.Users)),
	}
	for _, u := range topo.Users {
		f.walkers[u.ID] = f.newWalker(u.Pos)
	}
	return f, nil
}

func (f *Fleet) newWalker(start topology.Point) *Walker {
	w := &Walker{pos: start}
	f.retarget(w)
	return w
}

func (f *Fleet) retarget(w *Walker) {
	w.waypoint = f.topo.RandomPoint(f.rng)
	w.speed = f.cfg.SpeedMinMps + f.rng.Float64()*(f.cfg.SpeedMaxMps-f.cfg.SpeedMinMps)
}

// Advance moves every walker dt seconds forward and writes the new
// positions into the topology. Users added to the topology since the
// last call get fresh walkers; users removed are forgotten.
func (f *Fleet) Advance(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("mobility: non-positive dt %v", dt)
	}
	seen := make(map[int]bool, len(f.topo.Users))
	for idx := range f.topo.Users {
		u := &f.topo.Users[idx]
		seen[u.ID] = true
		w, ok := f.walkers[u.ID]
		if !ok {
			w = f.newWalker(u.Pos)
			f.walkers[u.ID] = w
		}
		f.step(w, dt)
		u.Pos = w.pos
	}
	for id := range f.walkers {
		if !seen[id] {
			delete(f.walkers, id)
		}
	}
	return nil
}

// step advances one walker by dt seconds, possibly across several
// waypoint legs.
func (f *Fleet) step(w *Walker, dt float64) {
	remaining := dt
	for remaining > 0 {
		if w.pausing > 0 {
			if w.pausing >= remaining {
				w.pausing -= remaining
				return
			}
			remaining -= w.pausing
			w.pausing = 0
			continue
		}
		dist := w.pos.Distance(w.waypoint)
		travel := w.speed * remaining
		if travel < dist {
			frac := travel / dist
			w.pos = topology.Point{
				X: w.pos.X + (w.waypoint.X-w.pos.X)*frac,
				Y: w.pos.Y + (w.waypoint.Y-w.pos.Y)*frac,
			}
			return
		}
		// Reached the waypoint: consume the travel time, pause, retarget.
		if w.speed > 0 {
			remaining -= dist / w.speed
		}
		w.pos = w.waypoint
		w.pausing = f.cfg.PauseSec
		f.retarget(w)
	}
}
