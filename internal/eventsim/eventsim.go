// Package eventsim is a minimal discrete-event simulation kernel: a
// monotonic clock plus a time-ordered event queue. The network simulator
// uses it to drive user arrival/departure dynamics; it is generic enough
// for any future event-driven substrate.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"
)

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("eventsim: event scheduled in the past")

// Handler is an event callback. It runs with the simulation clock set to
// the event's time and may schedule further events.
type Handler func(sim *Sim)

type event struct {
	at      float64
	seq     uint64 // FIFO tie-break for simultaneous events
	handler Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Sim is a discrete-event simulator. The zero value is ready to use with
// the clock at 0.
type Sim struct {
	queue eventQueue
	now   float64
	seq   uint64
	// free recycles executed events: a long open-loop run (the city
	// harness schedules one event per arrival/departure/roam across
	// millions of users) stays at a steady handful of live event structs
	// instead of allocating one per occurrence.
	free []*event
}

// New returns a fresh simulator with the clock at 0.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// ScheduleAt queues handler to run at absolute time t.
func (s *Sim) ScheduleAt(t float64, handler Handler) error {
	if t < s.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPast, t, s.now)
	}
	if handler == nil {
		return errors.New("eventsim: nil handler")
	}
	s.seq++
	ev := s.alloc()
	ev.at, ev.seq, ev.handler = t, s.seq, handler
	heap.Push(&s.queue, ev)
	return nil
}

// alloc pops a recycled event or makes a fresh one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// Schedule queues handler to run delay time units from now.
func (s *Sim) Schedule(delay float64, handler Handler) error {
	if delay < 0 {
		return fmt.Errorf("%w: negative delay %v", ErrPast, delay)
	}
	return s.ScheduleAt(s.now+delay, handler)
}

// Step executes the next event, advancing the clock to it. It reports
// whether an event was executed.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	// Recycle the struct BEFORE running the handler: the handler may
	// schedule (and its schedulees reuse the slot), but ev's fields have
	// already been copied out.
	h := ev.handler
	s.now = ev.at
	ev.handler = nil
	s.free = append(s.free, ev)
	h(s)
	return true
}

// RunUntil executes events in time order until the queue is empty or the
// next event lies beyond horizon; the clock ends at min(horizon, last
// event time). Events scheduled exactly at the horizon run.
func (s *Sim) RunUntil(horizon float64) {
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}
