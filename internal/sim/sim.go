// Package sim provides a deterministic discrete-event simulator and the
// crowd model that drives the experiments: players arrive, wait in the
// matchmaker, play bursts of game rounds with their partner, leave when
// their session ends, and return with geometric probability. All time is
// virtual, so a simulated month of play runs in seconds and the GWAP
// metrics (throughput, ALP, expected contribution) are measured in
// simulated wall time exactly as the deployed games measured them.
package sim

import (
	"container/heap"
	"time"
)

// Simulator is a deterministic discrete-event scheduler with a virtual
// clock. It is not safe for concurrent use: all events run on the caller's
// goroutine, which is what makes runs reproducible.
type Simulator struct {
	now    time.Time
	events eventHeap
	seq    int64
	ran    int64
}

// NewSimulator returns a simulator whose clock starts at start.
func NewSimulator(start time.Time) *Simulator {
	return &Simulator{now: start}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Time { return s.now }

// Schedule enqueues fn to run at the given virtual time. Events scheduled
// in the past run immediately at the current time (time never goes
// backwards). Ties run in scheduling order, which keeps runs deterministic.
func (s *Simulator) Schedule(at time.Time, fn func()) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) {
	s.Schedule(s.now.Add(d), fn)
}

// Run executes events in time order until the queue empties or the next
// event lies beyond until; the clock finishes at until (or the last event
// time if later events remain). It returns the number of events executed.
func (s *Simulator) Run(until time.Time) int64 {
	before := s.ran
	for s.events.Len() > 0 {
		next := s.events[0]
		if next.at.After(until) {
			break
		}
		heap.Pop(&s.events)
		s.now = next.at
		next.fn()
		s.ran++
	}
	if s.now.Before(until) {
		s.now = until
	}
	return s.ran - before
}

type event struct {
	at  time.Time
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
