package match

import (
	"sync"

	"humancomp/internal/rng"
)

// ReplaySession is one recorded single-sided game transcript: the ordered
// guesses a real player made on an item in a past two-player game.
type ReplaySession struct {
	Item   int
	Player string
	Words  []int
}

// ReplayStore keeps a bounded number of recorded sessions per item. Each
// item's list is a true reservoir sample over every recording ever offered
// for it: once full, the t-th recording replaces a stored one with
// probability perItem/t, so the store stays an unbiased sample of all past
// play rather than drifting toward recent sessions. Safe for concurrent
// use.
type ReplayStore struct {
	mu       sync.Mutex
	src      *rng.Source
	perItem  int
	sessions map[int][]ReplaySession
	seen     map[int]int // recordings ever offered per item, drives the reservoir
	items    []int       // keys of sessions, for O(1) random item choice
	total    int         // recordings currently stored, kept exact for Size
}

// NewReplayStore returns a store keeping at most perItem recordings per item.
func NewReplayStore(src *rng.Source, perItem int) *ReplayStore {
	if perItem <= 0 {
		panic("match: replay store capacity must be positive")
	}
	return &ReplayStore{
		src:      src.Split(),
		perItem:  perItem,
		sessions: make(map[int][]ReplaySession),
		seen:     make(map[int]int),
	}
}

// Record stores a session transcript. Empty transcripts are ignored: a
// partner that never guesses is useless for replayed play. Once an item's
// list is full, Algorithm R keeps it a uniform sample: the t-th offered
// recording is admitted with probability perItem/t, evicting a uniformly
// random resident.
func (s *ReplayStore) Record(sess ReplaySession) {
	if len(sess.Words) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.sessions[sess.Item]
	if len(list) == 0 {
		s.items = append(s.items, sess.Item)
	}
	s.seen[sess.Item]++
	if len(list) < s.perItem {
		s.sessions[sess.Item] = append(list, sess)
		s.total++
		return
	}
	if j := s.src.Intn(s.seen[sess.Item]); j < s.perItem {
		list[j] = sess
	}
}

// Get returns a uniformly random recorded session for item, or ok == false
// when none exist.
func (s *ReplayStore) Get(item int) (ReplaySession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(item)
}

func (s *ReplayStore) getLocked(item int) (ReplaySession, bool) {
	list := s.sessions[item]
	if len(list) == 0 {
		return ReplaySession{}, false
	}
	return list[s.src.Intn(len(list))], true
}

// Partner picks a recorded partner for player, the pre-recorded partner
// of single-player play. It draws up to eight transcripts, each from a
// random recorded item, and returns the first that is neither player's own
// nor on an item retired reports; ok is false when none qualifies or the
// store is empty. retired runs outside the store's lock.
func (s *ReplayStore) Partner(player string, retired func(item int) bool) (ReplaySession, bool) {
	for draw := 0; draw < 8; draw++ {
		rs, ok := s.any()
		if !ok {
			break
		}
		if rs.Player != player && !retired(rs.Item) {
			return rs, true
		}
	}
	return ReplaySession{}, false
}

// any returns a random recorded session from a random recorded item, or
// ok == false when the store is empty.
func (s *ReplayStore) any() (ReplaySession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return ReplaySession{}, false
	}
	return s.getLocked(s.items[s.src.Intn(len(s.items))])
}

// Size returns the total number of stored recordings.
func (s *ReplayStore) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
