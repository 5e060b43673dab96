package sim

import (
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

func TestSimulatorRunsInTimeOrder(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	s.Schedule(t0.Add(3*time.Second), func() { order = append(order, 3) })
	s.Schedule(t0.Add(1*time.Second), func() { order = append(order, 1) })
	s.Schedule(t0.Add(2*time.Second), func() { order = append(order, 2) })
	n := s.Run(t0.Add(time.Minute))
	if n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != t0.Add(time.Minute) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimulatorTiesRunInScheduleOrder(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	at := t0.Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(at, func() { order = append(order, i) })
	}
	s.Run(t0.Add(time.Minute))
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestSimulatorEventsCanSchedule(t *testing.T) {
	s := NewSimulator(t0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	s.Run(t0.Add(time.Hour))
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if s.events.Len() != 0 {
		t.Fatalf("pending = %d", s.events.Len())
	}
}

func TestSimulatorStopsAtHorizon(t *testing.T) {
	s := NewSimulator(t0)
	ran := false
	s.Schedule(t0.Add(2*time.Hour), func() { ran = true })
	s.Run(t0.Add(time.Hour))
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if s.events.Len() != 1 {
		t.Fatalf("pending = %d", s.events.Len())
	}
	if s.Now() != t0.Add(time.Hour) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := NewSimulator(t0)
	s.Schedule(t0.Add(time.Minute), func() {
		ranAt := time.Time{}
		s.Schedule(t0, func() { ranAt = s.Now() }) // in the past
		_ = ranAt
	})
	s.Run(t0.Add(time.Hour))
	if s.events.Len() != 0 {
		t.Fatal("past event never ran")
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	s := NewSimulator(t0)
	last := t0
	for i := 1; i <= 100; i++ {
		s.Schedule(t0.Add(time.Duration(i)*time.Second), func() {
			if s.Now().Before(last) {
				t.Fatal("clock went backwards")
			}
			last = s.Now()
		})
	}
	s.Run(t0.Add(time.Hour))
}
