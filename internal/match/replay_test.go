package match

import (
	"fmt"
	"sync"
	"testing"

	"humancomp/internal/rng"
)

// TestReservoirDistribution checks Record keeps a uniform sample over
// everything ever offered: with capacity k and n >> k offered recordings,
// each recording should be resident at the end with probability k/n. A
// chi-squared statistic over many seeded runs catches both the old
// recency bias (late recordings always admitted) and any new skew.
func TestReservoirDistribution(t *testing.T) {
	const (
		k      = 4
		n      = 40
		trials = 2000
	)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := NewReplayStore(rng.New(uint64(trial+1)), k)
		for i := 0; i < n; i++ {
			s.Record(ReplaySession{Item: 1, Player: fmt.Sprintf("p%d", i), Words: []int{i}})
		}
		for _, sess := range s.sessions[1] {
			counts[sess.Words[0]]++
		}
		if got := s.seen[1]; got != n {
			t.Fatalf("seen[1] = %d, want %d", got, n)
		}
	}
	// Each of the n recordings is expected in trials*k/n final reservoirs.
	exp := float64(trials) * k / n
	var chi2 float64
	for i, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
		if c == 0 {
			t.Errorf("recording %d never survived in %d trials", i, trials)
		}
	}
	// df = n-1 = 39: mean 39, sd ~8.8. 85 is beyond +5 sd — a uniform
	// sampler essentially never trips it, the old always-replace bug
	// blows far past it (late items dominate, early items vanish).
	if chi2 > 85 {
		t.Fatalf("chi-squared = %.1f over %d cells; reservoir not uniform", chi2, n)
	}
}

// TestReservoirAdmitsLateWithProbabilityKOverN pins the exact bug the old
// code had: the t-th recording must be admitted with probability k/t, not
// always. Across seeded runs the final offered recording should be
// resident roughly k/n of the time.
func TestReservoirAdmitsLateWithProbabilityKOverN(t *testing.T) {
	const (
		k      = 2
		n      = 20
		trials = 3000
	)
	lastResident := 0
	for trial := 0; trial < trials; trial++ {
		s := NewReplayStore(rng.New(uint64(trial+1000)), k)
		for i := 0; i < n; i++ {
			s.Record(ReplaySession{Item: 7, Player: "p", Words: []int{i}})
		}
		for _, sess := range s.sessions[7] {
			if sess.Words[0] == n-1 {
				lastResident++
			}
		}
	}
	got := float64(lastResident) / trials
	want := float64(k) / n // 0.10
	if got < want/2 || got > want*2 {
		t.Fatalf("last recording resident in %.3f of runs, want ~%.2f (old bug: 1.0)", got, want)
	}
}

// TestSizeUsesCounter pins Size to the O(1) stored-recordings counter and
// checks it tracks appends but not reservoir replacements.
func TestSizeUsesCounter(t *testing.T) {
	s := NewReplayStore(rng.New(12), 2)
	for i := 0; i < 10; i++ {
		s.Record(ReplaySession{Item: i % 2, Player: "p", Words: []int{i}})
	}
	if s.Size() != 4 {
		t.Fatalf("Size = %d, want 4 (2 items x cap 2)", s.Size())
	}
	if len(s.sessions) != 2 {
		t.Fatalf("items = %d", len(s.sessions))
	}
}

func TestReplayerEdgeCases(t *testing.T) {
	// Empty transcript: exhausted from the start.
	r := NewReplayer(ReplaySession{Item: 3})
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d on empty transcript", r.Remaining())
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next on empty transcript succeeded")
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d after failed Next", r.Remaining())
	}
	// Single-word transcript: Remaining steps 1 -> 0, repeated Next at the
	// end keeps failing without going negative.
	r = NewReplayer(ReplaySession{Item: 3, Words: []int{42}})
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if w, ok := r.Next(); !ok || w != 42 {
		t.Fatalf("Next = %d, %v", w, ok)
	}
	for i := 0; i < 3; i++ {
		if _, ok := r.Next(); ok {
			t.Fatal("Next past end succeeded")
		}
		if r.Remaining() != 0 {
			t.Fatalf("Remaining = %d past end", r.Remaining())
		}
	}
	if r.sess.Item != 3 {
		t.Fatalf("sess.Item = %d", r.sess.Item)
	}
}

// TestReplayStoreConcurrent drives Record/Get/Any/Size from many
// goroutines under -race.
func TestReplayStoreConcurrent(t *testing.T) {
	s := NewReplayStore(rng.New(13), 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record(ReplaySession{Item: i % 5, Player: fmt.Sprintf("w%d", w), Words: []int{i}})
				_, _ = s.Get(i % 5)
				_, _ = s.Any()
				_ = s.Size()
			}
		}(w)
	}
	wg.Wait()
	if s.Size() != 5*4 {
		t.Fatalf("Size = %d, want 20", s.Size())
	}
}
