// Package match implements the two pieces of GWAP infrastructure that turn
// a two-player mechanism into a service: the matchmaker, which pairs
// arriving players uniformly at random (the primary structural defense
// against collusion — you cannot cheat with a partner you cannot choose),
// and the replay store, which records the guess sequences of past games so
// a lone player can be paired with a "pre-recorded" partner instead of
// waiting. Replayed partners keep the game playable at low traffic and are
// also an anti-cheat tool: a player who "agrees" with a replayed stranger
// was verifiably not colluding.
//
// Both Matchmaker and ReplayStore are safe for concurrent use. The session
// core drives them under its plane's lock, and the crowd simulator from its
// event loop.
package match

import (
	"errors"
	"sync"

	"humancomp/internal/rng"
)

// ErrAlreadyWaiting is returned when a player enqueues twice.
var ErrAlreadyWaiting = errors.New("match: player already in the waiting pool")

// Matchmaker pairs players uniformly at random from its waiting pool.
type Matchmaker struct {
	mu      sync.Mutex
	src     *rng.Source
	waiting []string
	index   map[string]int // player -> position in waiting
}

// NewMatchmaker returns an empty matchmaker drawing randomness from src.
func NewMatchmaker(src *rng.Source) *Matchmaker {
	return &Matchmaker{
		src:   src.Split(),
		index: make(map[string]int),
	}
}

// Enqueue adds id to the pool. If anyone is waiting, a partner drawn
// uniformly at random is removed and returned with ok == true; otherwise
// id waits.
func (m *Matchmaker) Enqueue(id string) (partner string, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, waiting := m.index[id]; waiting {
		return "", false, ErrAlreadyWaiting
	}
	if len(m.waiting) == 0 {
		m.index[id] = 0
		m.waiting = append(m.waiting, id)
		return "", false, nil
	}
	i := m.src.Intn(len(m.waiting))
	partner = m.waiting[i]
	m.removeAt(i)
	return partner, true, nil
}

// Leave removes id from the waiting pool (the player closed the tab).
// It reports whether the player was waiting.
func (m *Matchmaker) Leave(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.index[id]
	if !ok {
		return false
	}
	m.removeAt(i)
	return true
}

// removeAt deletes the waiting entry at position i, moving the last entry
// into its slot. Caller holds m.mu.
func (m *Matchmaker) removeAt(i int) {
	id := m.waiting[i]
	last := len(m.waiting) - 1
	m.waiting[i] = m.waiting[last]
	m.index[m.waiting[i]] = i
	m.waiting = m.waiting[:last]
	delete(m.index, id)
}
