package eventsim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

func TestZeroValueUsable(t *testing.T) {
	var s Sim
	if s.Now() != 0 || s.Pending() != 0 {
		t.Errorf("zero value: now=%v pending=%d", s.Now(), s.Pending())
	}
	if s.Step() {
		t.Error("Step on empty queue should report false")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if err := s.ScheduleAt(at, func(sim *Sim) {
			order = append(order, sim.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Now() != 0 || s.Pending() != 5 {
		t.Errorf("scheduling ran events: now=%v pending=%d", s.Now(), s.Pending())
	}
	s.Run(100)
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events ran out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("ran %d events, want 5", len(order))
	}
	if s.Now() != 5 {
		t.Errorf("clock = %v, want 5", s.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.ScheduleAt(7, func(*Sim) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestScheduleRelative(t *testing.T) {
	s := New()
	var at float64
	if err := s.Schedule(2, func(sim *Sim) {
		if err := sim.Schedule(3, func(sim2 *Sim) { at = sim2.Now() }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if at != 5 {
		t.Errorf("nested event at %v, want 5", at)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New()
	if err := s.ScheduleAt(5, func(*Sim) {}); err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	if err := s.ScheduleAt(1, func(*Sim) {}); !errors.Is(err, ErrPast) {
		t.Errorf("past event error = %v, want ErrPast", err)
	}
	if err := s.Schedule(-1, func(*Sim) {}); !errors.Is(err, ErrPast) {
		t.Errorf("negative delay error = %v, want ErrPast", err)
	}
	if err := s.ScheduleAt(10, nil); err == nil {
		t.Error("nil handler: want error")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	ran := make(map[float64]bool)
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		if err := s.ScheduleAt(at, func(*Sim) { ran[at] = true }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(3)
	if !ran[1] || !ran[2] || !ran[3] {
		t.Errorf("events up to horizon should run: %v", ran)
	}
	if ran[4] || ran[5] {
		t.Errorf("events beyond horizon ran: %v", ran)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Errorf("idle clock = %v, want 42", s.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := New()
	count := 0
	var reschedule Handler
	reschedule = func(sim *Sim) {
		count++
		_ = sim.Schedule(1, reschedule)
	}
	if err := s.Schedule(0, reschedule); err != nil {
		t.Fatal(err)
	}
	n := s.Run(50)
	if n != 50 || count != 50 {
		t.Errorf("ran %d/%d events, want 50", n, count)
	}
}

func TestManyRandomEventsStaySorted(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(17))
	var times []float64
	for i := 0; i < 5000; i++ {
		at := rng.Float64() * 1000
		if err := s.ScheduleAt(at, func(sim *Sim) {
			times = append(times, sim.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(10000)
	if len(times) != 5000 {
		t.Fatalf("ran %d events", len(times))
	}
	if !sort.Float64sAreSorted(times) {
		t.Error("execution times not sorted")
	}
}

// TestSteadyStateAllocFree pins the event free-list: a self-rescheduling
// chain (the shape of every open-loop generator) recycles one event
// struct instead of allocating per occurrence.
func TestSteadyStateAllocFree(t *testing.T) {
	s := New()
	var tick Handler
	tick = func(s2 *Sim) {
		if s2.Now() < 1000 {
			if err := s2.Schedule(1, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := s.Schedule(1, tick); err != nil {
		t.Fatal(err)
	}
	// Warm up: the first step seeds the free list.
	s.Step()
	avg := testing.AllocsPerRun(100, func() { s.Step() })
	if avg > 0 {
		t.Errorf("steady-state Step allocates %v per event, want 0", avg)
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// Run executes every queued event (including ones scheduled during the
// run) up to maxEvents, returning the number executed.
func (s *Sim) Run(maxEvents uint64) uint64 {
	var n uint64
	for n < maxEvents && s.Step() {
		n++
	}
	return n
}
