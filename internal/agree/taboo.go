package agree

import (
	"sort"

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
	maxPerItem   int                  // 0 = unlimited
	counts       map[int]map[int]int  // item -> canonical -> agreement count
	taboo        map[int]map[int]bool // item -> canonical set
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
		taboo:        make(map[int]map[int]bool),
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
	if m[can] >= t.promoteAfter && !t.tabooHas(item, can) {
		if t.maxPerItem > 0 && len(t.taboo[item]) >= t.maxPerItem {
			return false
		}
		s := t.taboo[item]
		if s == nil {
			s = make(map[int]bool)
			t.taboo[item] = s
		}
		s[can] = true
		return true
	}
	return false
}

func (t *TabooTracker) tabooHas(item, can int) bool {
	s, ok := t.taboo[item]
	return ok && s[can]
}

// TabooFor returns the taboo word IDs for item in deterministic order,
// as canonical representatives, ready to pass to NewOutputRound.
func (t *TabooTracker) TabooFor(item int) []int {
	s := t.taboo[item]
	if len(s) == 0 {
		return nil
	}
	out := make([]int, 0, len(s))
	for can := range s {
		out = append(out, can)
	}
	sort.Ints(out)
	return out
}

// Retired reports whether item has accumulated enough taboo words to be
// considered fully labeled.
func (t *TabooTracker) Retired(item int) bool {
	return t.retireAt > 0 && len(t.taboo[item]) >= t.retireAt
}

// Agreements returns how many agreements word (by concept) has on item.
func (t *TabooTracker) Agreements(item, word int) int {
	return t.counts[item][t.lex.Canonical(word)]
}
