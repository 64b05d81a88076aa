// Package workload generates user arrival/departure traces for the
// dynamic experiments. The paper's simulation (§V-A) drives association
// requests with Poisson arrivals (rate 3) and departures (rate 1); §V-E
// evaluates WOLT at the end of every epoch as the population grows
// (36 → 66 → 102 users across epochs).
package workload

import (
	"fmt"
	"math"

	"github.com/plcwifi/wolt/internal/eventsim"
	"github.com/plcwifi/wolt/internal/seed"
)

// EventKind distinguishes arrivals from departures.
type EventKind int

const (
	// Arrival is a new user joining the network.
	Arrival EventKind = iota + 1
	// Departure is an existing user leaving.
	Departure
)

func (k EventKind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Departure:
		return "departure"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one churn event.
type Event struct {
	Time   float64
	Kind   EventKind
	UserID int
}

// Config parameterizes trace generation.
type Config struct {
	// ArrivalRate is the Poisson arrival rate (users per unit time).
	// The paper uses 3. With RateShape set it is the PEAK rate; the
	// instantaneous rate is ArrivalRate*RateShape(t).
	ArrivalRate float64
	// DepartureRate is the Poisson departure rate (departures per unit
	// time while at least one user is present, removing a uniformly
	// random present user). The paper uses 1. Mutually exclusive with
	// DwellRate.
	DepartureRate float64
	// DwellRate gives each user an independent Exp(DwellRate) dwell time
	// from its arrival (initial users dwell from time 0) — the M/M/∞
	// model whose steady-state population is ArrivalRate/DwellRate. The
	// city harness uses this form: per-user dwell makes departures
	// open-loop (no global coupling through the present-set), which is
	// how real clients behave. Mutually exclusive with DepartureRate.
	DwellRate float64
	// RateShape modulates the arrival rate over time (diurnal load
	// curves): the instantaneous rate is ArrivalRate*RateShape(t).
	// The shape must be deterministic and stay within [0, 1] (arrivals
	// are generated at the peak rate and thinned — values above 1 are
	// clamped, silently flattening the curve). Nil means constant rate.
	RateShape func(t float64) float64
	// Horizon is the simulated duration.
	Horizon float64
	// InitialUsers are present at time 0 (IDs 0..InitialUsers-1).
	InitialUsers int
	Seed         int64
}

// Diurnal returns a sinusoidal day/night RateShape with the given period:
// 1 at mid-period (afternoon peak), floor at the period boundaries
// (night), shaped as floor + (1-floor)·(1-cos(2πt/period))/2.
func Diurnal(period, floor float64) func(float64) float64 {
	return func(t float64) float64 {
		return floor + (1-floor)*(1-math.Cos(2*math.Pi*t/period))/2
	}
}

func (c Config) validate() error {
	if c.ArrivalRate < 0 || c.DepartureRate < 0 || c.DwellRate < 0 {
		return fmt.Errorf("workload: negative rate in %+v", c)
	}
	if c.ArrivalRate == 0 && c.DepartureRate == 0 && c.DwellRate == 0 {
		return fmt.Errorf("workload: all rates zero")
	}
	if c.DepartureRate > 0 && c.DwellRate > 0 {
		return fmt.Errorf("workload: DepartureRate and DwellRate are mutually exclusive")
	}
	if c.RateShape != nil && c.ArrivalRate <= 0 {
		return fmt.Errorf("workload: RateShape set with no arrival rate")
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("workload: non-positive horizon %v", c.Horizon)
	}
	if c.InitialUsers < 0 {
		return fmt.Errorf("workload: negative initial users %d", c.InitialUsers)
	}
	return nil
}

// Generate builds a churn trace. Arrivals carry fresh sequential user IDs
// (continuing after the initial users). Departures follow one of two
// models: DepartureRate removes a uniformly random present user at a
// network-level Poisson rate (the paper's §V-A setting), while DwellRate
// expires each user independently after an exponential dwell (M/M/∞).
// With RateShape set, arrivals are generated at the peak rate and thinned
// to the instantaneous one (Lewis-Shedler). Deterministic for a given
// seed: every draw comes from one root stream consumed in event order,
// and eventsim breaks time ties FIFO.
func Generate(cfg Config) ([]Event, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := seed.Root(cfg.Seed)
	sim := eventsim.New()

	var (
		events  []Event
		present []int
		nextID  = cfg.InitialUsers
	)

	exp := func(rate float64) float64 {
		return rng.ExpFloat64() / rate
	}

	var scheduleDwell func(s *eventsim.Sim, id int)
	scheduleDwell = func(s *eventsim.Sim, id int) {
		if err := s.Schedule(exp(cfg.DwellRate), func(s2 *eventsim.Sim) {
			events = append(events, Event{Time: s2.Now(), Kind: Departure, UserID: id})
		}); err != nil {
			panic(err) // delays are non-negative by construction
		}
	}

	for i := 0; i < cfg.InitialUsers; i++ {
		if cfg.DwellRate > 0 {
			scheduleDwell(sim, i)
		} else {
			present = append(present, i)
		}
	}

	var scheduleArrival, scheduleDeparture func(sim *eventsim.Sim)
	scheduleArrival = func(s *eventsim.Sim) {
		if cfg.ArrivalRate <= 0 {
			return
		}
		if err := s.Schedule(exp(cfg.ArrivalRate), func(s2 *eventsim.Sim) {
			// Lewis-Shedler thinning: candidate arrivals run at the peak
			// rate; each survives with probability shape(t). Only shaped
			// runs consume the acceptance draw, so unshaped traces match
			// the pre-shape generator byte for byte.
			accept := true
			if cfg.RateShape != nil {
				p := cfg.RateShape(s2.Now())
				if p < 1 {
					if p < 0 {
						p = 0
					}
					accept = rng.Float64() < p
				}
			}
			if accept {
				events = append(events, Event{Time: s2.Now(), Kind: Arrival, UserID: nextID})
				if cfg.DwellRate > 0 {
					scheduleDwell(s2, nextID)
				} else {
					present = append(present, nextID)
				}
				nextID++
			}
			scheduleArrival(s2)
		}); err != nil {
			panic(err)
		}
	}
	scheduleDeparture = func(s *eventsim.Sim) {
		if cfg.DepartureRate <= 0 {
			return
		}
		if err := s.Schedule(exp(cfg.DepartureRate), func(s2 *eventsim.Sim) {
			if len(present) > 0 {
				k := rng.Intn(len(present))
				events = append(events, Event{Time: s2.Now(), Kind: Departure, UserID: present[k]})
				present[k] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			scheduleDeparture(s2)
		}); err != nil {
			panic(err)
		}
	}
	scheduleArrival(sim)
	scheduleDeparture(sim)
	sim.RunUntil(cfg.Horizon)

	return events, nil
}
