package agree

import (
	"slices"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// TabooTracker implements the ESP Game's taboo-word mechanism. Each time a
// word is agreed on for an item, its count rises; once a word has been
// agreed PromoteAfter times it becomes taboo for that item, forcing future
// player pairs past the obvious labels and into the tail. When an item has
// accumulated RetireAt taboo words it is considered fully labeled and
// retired from play.
type TabooTracker struct {
	lex          *vocab.Lexicon
	promoteAfter int
	retireAt     int
	maxPerItem   int                 // 0 = unlimited
	counts       map[int]map[int]int // item -> canonical -> agreement count
	taboo        map[int][]int       // item -> canonicals, ascending
	retired      int                 // items Retired reports
}

// SetMaxPerItem caps how many taboo words an item may accumulate (the
// deployed game displayed a bounded taboo list); 0 removes the cap.
func (t *TabooTracker) SetMaxPerItem(n int) { t.maxPerItem = n }

// NewTabooTracker returns a tracker promoting words to taboo after
// promoteAfter agreements and retiring items at retireAt taboo words.
// retireAt <= 0 disables retirement.
func NewTabooTracker(lex *vocab.Lexicon, promoteAfter, retireAt int) *TabooTracker {
	if promoteAfter < 1 {
		panic("agree: promoteAfter must be >= 1")
	}
	return &TabooTracker{
		lex:          lex,
		promoteAfter: promoteAfter,
		retireAt:     retireAt,
		counts:       make(map[int]map[int]int),
		taboo:        make(map[int][]int),
	}
}

// Record notes an agreement on word for item and returns true if the word
// was promoted to taboo by this agreement.
func (t *TabooTracker) Record(item, word int) bool {
	can := t.lex.Canonical(word)
	m := t.counts[item]
	if m == nil {
		m = make(map[int]int)
		t.counts[item] = m
	}
	m[can]++
	if m[can] < t.promoteAfter {
		return false
	}
	s := t.taboo[item]
	i, taboo := slices.BinarySearch(s, can)
	if taboo || t.maxPerItem > 0 && len(s) >= t.maxPerItem {
		return false
	}
	s = slices.Insert(s, i, can)
	t.taboo[item] = s
	if len(s) == t.retireAt {
		t.retired++
	}
	return true
}

// TabooFor returns the taboo word IDs for item in ascending order, as
// canonical representatives, ready to pass to NewOutputRound.
func (t *TabooTracker) TabooFor(item int) []int { return slices.Clone(t.taboo[item]) }

// Retired reports whether item has accumulated enough taboo words to be
// considered fully labeled.
func (t *TabooTracker) Retired(item int) bool {
	return t.retireAt > 0 && len(t.taboo[item]) >= t.retireAt
}

// RetiredCount returns how many items have retired.
func (t *TabooTracker) RetiredCount() int { return t.retired }

// Pick returns an item of 0..n-1 that has not retired — the first one at
// or after a start drawn from src, wrapping — or ok == false once all n
// have retired.
func (t *TabooTracker) Pick(src *rng.Source, n int) (int, bool) {
	start := src.Intn(n)
	for i := 0; i < n; i++ {
		if id := (start + i) % n; !t.Retired(id) {
			return id, true
		}
	}
	return 0, false
}
