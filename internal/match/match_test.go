package match

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"humancomp/internal/rng"
)

func TestEnqueuePairsTwoPlayers(t *testing.T) {
	m := NewMatchmaker(rng.New(1))
	if _, ok, err := m.Enqueue("a"); err != nil || ok {
		t.Fatalf("first enqueue: ok=%v err=%v", ok, err)
	}
	if waiting(m) != 1 {
		t.Fatalf("Waiting = %d", waiting(m))
	}
	partner, ok, err := m.Enqueue("b")
	if err != nil || !ok || partner != "a" {
		t.Fatalf("second enqueue: partner=%q ok=%v err=%v", partner, ok, err)
	}
	if waiting(m) != 0 {
		t.Fatalf("Waiting = %d after pair", waiting(m))
	}
}

func TestEnqueueTwiceRejected(t *testing.T) {
	m := NewMatchmaker(rng.New(2))
	_, _, _ = m.Enqueue("a")
	if _, _, err := m.Enqueue("a"); !errors.Is(err, ErrAlreadyWaiting) {
		t.Fatalf("double enqueue: %v", err)
	}
}

func TestLeave(t *testing.T) {
	m := NewMatchmaker(rng.New(3))
	_, _, _ = m.Enqueue("a")
	_, _, _ = m.Enqueue("b") // pairs with a
	_, _, _ = m.Enqueue("c")
	if !m.Leave("c") {
		t.Fatal("Leave(c) = false for waiting player")
	}
	if m.Leave("c") {
		t.Fatal("Leave(c) = true after leaving")
	}
	if waiting(m) != 0 {
		t.Fatalf("Waiting = %d", waiting(m))
	}
	// After leaving, a new arrival waits instead of pairing with c.
	if _, ok, _ := m.Enqueue("d"); ok {
		t.Fatal("paired with departed player")
	}
}

func TestRandomPairingIsUniform(t *testing.T) {
	// With 4 waiting players, a fifth arrival should pick each with
	// roughly equal probability across many trials.
	counts := map[string]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		m := NewMatchmaker(rng.New(uint64(i + 1)))
		// Seed the waiting pool directly (white-box): sequential Enqueue
		// calls would pair the seeds with each other.
		for _, id := range []string{"w1", "w2", "w3", "w4"} {
			m.index[id] = len(m.waiting)
			m.waiting = append(m.waiting, id)
		}
		p, ok, _ := m.Enqueue("new")
		if !ok {
			t.Fatal("fifth player did not pair")
		}
		counts[p]++
	}
	for id, c := range counts {
		if c < trials/4-trials/10 || c > trials/4+trials/10 {
			t.Errorf("partner %s chosen %d/%d times; pairing not uniform", id, c, trials)
		}
	}
}

func TestManyPlayersAllPair(t *testing.T) {
	m := NewMatchmaker(rng.New(6))
	paired := 0
	for i := 0; i < 1000; i++ {
		if _, ok, err := m.Enqueue(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		} else if ok {
			paired++
		}
	}
	if paired != 500 {
		t.Fatalf("paired %d couples from 1000 arrivals", paired)
	}
	if waiting(m) != 0 {
		t.Fatalf("Waiting = %d", waiting(m))
	}
}

func TestReplayStoreRecordGet(t *testing.T) {
	s := NewReplayStore(rng.New(7), 3)
	if _, ok := s.Get(1); ok {
		t.Fatal("Get on empty store succeeded")
	}
	s.Record(ReplaySession{Item: 1, Player: "a", Words: []int{1, 2, 3}})
	s.Record(ReplaySession{Item: 1, Player: "b", Words: []int{4}})
	s.Record(ReplaySession{Item: 2, Player: "c", Words: []int{5}})
	s.Record(ReplaySession{Item: 3, Player: "d", Words: nil}) // ignored
	if len(s.sessions) != 2 || s.Size() != 3 {
		t.Fatalf("items=%d Size=%d", len(s.sessions), s.Size())
	}
	sess, ok := s.Get(1)
	if !ok || sess.Item != 1 {
		t.Fatalf("Get(1) = %+v, %v", sess, ok)
	}
}

func TestReplayStoreEvictionKeepsCapacity(t *testing.T) {
	s := NewReplayStore(rng.New(8), 2)
	for i := 0; i < 50; i++ {
		s.Record(ReplaySession{Item: 1, Player: fmt.Sprintf("p%d", i), Words: []int{i}})
	}
	if got := len(s.sessions[1]); got != 2 {
		t.Fatalf("stored %d sessions, cap 2", got)
	}
	// Eviction is random replacement: late sessions should appear sometimes.
	foundLate := false
	for _, sess := range s.sessions[1] {
		if sess.Words[0] >= 2 {
			foundLate = true
		}
	}
	if !foundLate {
		t.Error("random replacement never admitted a late recording")
	}
}

func TestReplayStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewReplayStore(rng.New(1), 0)
}

// TestMatchmakerChurnRace hammers Enqueue/Leave/accessors from many
// goroutines under -race and then checks the index/waiting bookkeeping is
// still exactly consistent.
func TestMatchmakerChurnRace(t *testing.T) {
	m := NewMatchmaker(rng.New(11))
	const workers = 8
	const rounds = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Two goroutines share each identity, so concurrent
				// enqueue/leave of the same player really happens.
				id := fmt.Sprintf("p%d-%d", w/2, i%13)
				if _, ok, err := m.Enqueue(id); err == nil && !ok && i%3 == 0 {
					m.Leave(id)
				}
				_ = waiting(m)
			}
		}(w)
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.index) != len(m.waiting) {
		t.Fatalf("index has %d entries, waiting has %d", len(m.index), len(m.waiting))
	}
	for i, id := range m.waiting {
		if m.index[id] != i {
			t.Fatalf("index[%q] = %d, want %d", id, m.index[id], i)
		}
	}
}

func BenchmarkEnqueuePair(b *testing.B) {
	m := NewMatchmaker(rng.New(1))
	for i := 0; b.Loop(); i++ {
		_, _, _ = m.Enqueue(fmt.Sprintf("a%d", i))
		_, _, _ = m.Enqueue(fmt.Sprintf("b%d", i))
	}
}

// waiting returns the number of players in m's pool.
func waiting(m *Matchmaker) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiting)
}
