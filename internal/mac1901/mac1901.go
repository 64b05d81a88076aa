// Package mac1901 is a slot-level simulator of the IEEE 1901 (HomePlug AV)
// MAC used on the PLC backhaul, in both of the standard's access modes:
//
//   - CSMA/CA with the 1901-specific deferral counter: on sensing the
//     medium busy with an exhausted deferral counter, a station behaves as
//     if it had collided — it advances its backoff stage and redraws —
//     which is the main difference from 802.11 DCF (Vlachou et al.).
//
//   - TDMA: the central coordinator grants fixed time slots round-robin.
//
// The key behaviour this simulator demonstrates (the paper's Fig 2c) is
// that PLC sharing is *time-fair*: a HomePlug PPDU occupies a bounded,
// rate-independent duration and carries payload proportional to the
// link's PHY rate, so each of A saturated extenders obtains ≈1/A of the
// medium time and therefore ≈ c_j/A throughput — unlike 802.11's
// throughput-fair sharing.
package mac1901

import (
	"fmt"
	"math/rand"
)

// stage is one row of the 1901 backoff schedule: contention window and
// initial deferral counter per backoff procedure counter (BPC) value.
type stage struct {
	cw int
	dc int
}

// Priority is an IEEE 1901 channel-access priority class. The standard
// defines four (CA0 lowest … CA3 highest) grouped into two backoff
// schedules; before contention, priority resolution slots let higher
// classes silence lower ones.
type Priority int

// The standard's channel-access classes.
const (
	CA0 Priority = iota
	CA1
	CA2
	CA3
)

// ca1Schedule is the standard's CA0/CA1 backoff schedule.
var ca1Schedule = []stage{
	{cw: 8, dc: 0},
	{cw: 16, dc: 1},
	{cw: 32, dc: 3},
	{cw: 64, dc: 15},
}

// ca3Schedule is the standard's CA2/CA3 backoff schedule: tighter
// windows, so high-priority traffic contends more aggressively.
var ca3Schedule = []stage{
	{cw: 8, dc: 0},
	{cw: 16, dc: 1},
	{cw: 16, dc: 3},
	{cw: 32, dc: 15},
}

// schedule returns the backoff schedule of a priority class.
func (p Priority) schedule() []stage {
	if p >= CA2 {
		return ca3Schedule
	}
	return ca1Schedule
}

// Params are the MAC/PHY constants of the simulated PLC segment.
type Params struct {
	// SlotTime is the contention slot duration in seconds (35.84 µs).
	SlotTime float64
	// PPDUDuration is the fixed frame duration in seconds. HomePlug AV
	// bounds a PPDU to ~2.5 ms regardless of PHY rate; the payload
	// carried scales with the rate, which is what yields time-fairness.
	PPDUDuration float64
	// OverheadPerFrame is the fixed inter-frame duration in seconds
	// (priority resolution slots, RIFS, SACK).
	OverheadPerFrame float64
}

// DefaultParams returns HomePlug-AV-like constants.
func DefaultParams() Params {
	return Params{
		SlotTime:         35.84e-6,
		PPDUDuration:     2.5e-3,
		OverheadPerFrame: 190e-6,
	}
}

func (p Params) validate() error {
	if p.SlotTime <= 0 || p.PPDUDuration <= 0 || p.OverheadPerFrame < 0 {
		return fmt.Errorf("mac1901: bad params %+v", p)
	}
	return nil
}

// StationStats is the per-extender outcome of a simulation.
type StationStats struct {
	// CapacityMbps is the extender's isolation capacity c_j: the goodput
	// its PLC link sustains while it holds the medium.
	CapacityMbps float64
	Successes    int
	Collisions   int
	// Deferrals counts busy observations that exhausted the deferral
	// counter (1901's virtual collisions).
	Deferrals      int
	AirtimeSec     float64
	AirtimeShare   float64
	ThroughputMbps float64
}

// Result is the outcome of a PLC segment simulation.
type Result struct {
	Stations      []StationStats
	DurationSec   float64
	AggregateMbps float64
	CollisionRate float64
}

type station struct {
	capacity float64
	priority Priority
	sched    []stage
	bpc      int // backoff procedure counter (stage index)
	dc       int
	backoff  int
	stats    StationStats
}

func (s *station) redraw(rng *rand.Rand) {
	st := s.sched[s.bpc]
	s.dc = st.dc
	s.backoff = 1 + rng.Intn(st.cw)
}

func (s *station) advanceStage(rng *rand.Rand) {
	if s.bpc < len(s.sched)-1 {
		s.bpc++
	}
	s.redraw(rng)
}

// Simulate runs saturated extenders with the given isolation capacities
// (Mbps) over the simulated duration in CSMA/CA mode, all at priority
// CA1 (the best-effort default).
func Simulate(capacitiesMbps []float64, duration float64, params Params, rng *rand.Rand) (*Result, error) {
	priorities := make([]Priority, len(capacitiesMbps))
	for i := range priorities {
		priorities[i] = CA1
	}
	return SimulateWithPriorities(capacitiesMbps, priorities, duration, params, rng)
}

// SimulateWithPriorities runs saturated extenders with per-station IEEE
// 1901 channel-access classes. Priority resolution precedes contention:
// in every round only the highest backlogged class contends, so under
// saturation strict priority starves lower classes — the standard's
// documented behaviour, and the reason the QoS planner (internal/qos)
// admits guarantees onto TDMA slots instead.
func SimulateWithPriorities(capacitiesMbps []float64, priorities []Priority, duration float64, params Params, rng *rand.Rand) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if len(capacitiesMbps) == 0 {
		return nil, fmt.Errorf("mac1901: no stations")
	}
	if len(priorities) != len(capacitiesMbps) {
		return nil, fmt.Errorf("mac1901: %d priorities for %d stations",
			len(priorities), len(capacitiesMbps))
	}
	if duration <= 0 {
		return nil, fmt.Errorf("mac1901: non-positive duration %v", duration)
	}
	if rng == nil {
		return nil, fmt.Errorf("mac1901: nil rng")
	}
	maxPrio := priorities[0]
	stations := make([]*station, len(capacitiesMbps))
	for i, c := range capacitiesMbps {
		if c <= 0 {
			return nil, fmt.Errorf("mac1901: station %d has non-positive capacity %v", i, c)
		}
		if priorities[i] < CA0 || priorities[i] > CA3 {
			return nil, fmt.Errorf("mac1901: station %d has invalid priority %d", i, priorities[i])
		}
		if priorities[i] > maxPrio {
			maxPrio = priorities[i]
		}
		stations[i] = &station{
			capacity: c,
			priority: priorities[i],
			sched:    priorities[i].schedule(),
			stats:    StationStats{CapacityMbps: c},
		}
		stations[i].redraw(rng)
	}
	// Under saturation, priority resolution admits only the highest
	// class to every contention round.
	var contenders []*station
	for _, s := range stations {
		if s.priority == maxPrio {
			contenders = append(contenders, s)
		}
	}

	var (
		now        float64
		collisions int
		successes  int
	)
	busyFrame := params.PPDUDuration + params.OverheadPerFrame
	for now < duration {
		minBackoff := contenders[0].backoff
		for _, s := range contenders[1:] {
			if s.backoff < minBackoff {
				minBackoff = s.backoff
			}
		}
		now += float64(minBackoff) * params.SlotTime
		if now >= duration {
			break
		}

		var winners []*station
		for _, s := range contenders {
			s.backoff -= minBackoff
			if s.backoff == 0 {
				winners = append(winners, s)
			}
		}

		if len(winners) == 1 {
			w := winners[0]
			now += busyFrame
			w.stats.Successes++
			w.stats.AirtimeSec += params.PPDUDuration
			w.bpc = 0
			w.redraw(rng)
			successes++
			// 1901 deferral behaviour: every station that saw the busy
			// medium consumes its deferral counter; at zero it reacts
			// like a collision (advance stage, redraw) — the standard's
			// mechanism for de-synchronizing contenders.
			for _, s := range contenders {
				if s == w {
					continue
				}
				if s.dc == 0 {
					s.stats.Deferrals++
					s.advanceStage(rng)
				} else {
					s.dc--
				}
			}
			continue
		}
		// Real collision: the medium is busy for one PPDU, colliders
		// advance their stage.
		now += busyFrame
		for _, s := range winners {
			s.stats.Collisions++
			s.advanceStage(rng)
			collisions++
		}
		for _, s := range contenders {
			if s.backoff == 0 {
				continue // collider, already handled
			}
			if s.dc == 0 {
				s.stats.Deferrals++
				s.advanceStage(rng)
			} else {
				s.dc--
			}
		}
	}

	return finish(stations, now, params, collisions, successes), nil
}

func finish(stations []*station, now float64, params Params, collisions, successes int) *Result {
	res := &Result{
		Stations:    make([]StationStats, len(stations)),
		DurationSec: now,
	}
	for i, s := range stations {
		// Payload carried per PPDU is capacity × PPDU duration.
		deliveredMbit := s.capacity * s.stats.AirtimeSec
		s.stats.ThroughputMbps = deliveredMbit / now
		s.stats.AirtimeShare = s.stats.AirtimeSec / now
		res.Stations[i] = s.stats
		res.AggregateMbps += s.stats.ThroughputMbps
	}
	if attempts := collisions + successes; attempts > 0 {
		res.CollisionRate = float64(collisions) / float64(attempts)
	}
	return res
}
