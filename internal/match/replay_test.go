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

// TestPartnerSkipsOwnAndRetired pins the replay-partner choice: never the
// player's own transcript, never a retired item, and nothing when only
// those are stored.
func TestPartnerSkipsOwnAndRetired(t *testing.T) {
	s := NewReplayStore(rng.New(14), 4)
	if _, ok := s.Partner("dora", func(int) bool { return false }); ok {
		t.Fatal("partner from an empty store")
	}
	s.Record(ReplaySession{Item: 1, Player: "dora", Words: []int{5}})
	s.Record(ReplaySession{Item: 2, Player: "ghost", Words: []int{6}})
	retired := map[int]bool{}
	isRetired := func(item int) bool { return retired[item] }
	for i := 0; i < 50; i++ {
		rs, ok := s.Partner("dora", isRetired)
		if !ok || rs.Player != "ghost" {
			t.Fatalf("dora got %+v, %v", rs, ok)
		}
	}
	retired[2] = true
	if rs, ok := s.Partner("dora", isRetired); ok {
		t.Fatalf("dora got %+v on a retired item", rs)
	}
}

// TestReplayStoreConcurrent drives Record/Get/Partner/Size from many
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
				_, _ = s.Partner("w", func(int) bool { return false })
				_ = s.Size()
			}
		}(w)
	}
	wg.Wait()
	if s.Size() != 5*4 {
		t.Fatalf("Size = %d, want 20", s.Size())
	}
}
