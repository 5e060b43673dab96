// Package games implements the seven games with a purpose the survey
// describes, as instances of its three agreement templates:
//
//   - output agreement: ESP (labels), Squigl (outlines) and Matchin
//     (preferences) — two players see the same input and score when their
//     outputs agree;
//   - inversion problem: Peekaboom (object locations), Verbosity
//     (common-sense facts) and Phetch (captions) — one player describes a
//     secret, the other must recover it from the description;
//   - input agreement: TagATune (descriptions) — each player describes
//     their own input and both decide whether the inputs match.
//
// Every game plays a single round on a given item with PlayRound, which
// experiments and tests drive directly, and implements the crowd
// simulator's pair interface with Play: pick an item, play a round on it,
// and count the outputs the round validated. The mechanics the games share
// are written once here: the per-item tally of agreed words, the pick of a
// random real object, and the inversion loop.
package games

import (
	"sort"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Label is a word agreed on for an item, with its agreement count.
type Label struct {
	Word  int
	Count int
}

// Tally counts agreed words per item: ESP's labels and TagATune's
// validated descriptions. Counts pool synonyms under their canonical word,
// so "couch" and "sofa" agreements reinforce each other.
type Tally struct {
	lex    *vocab.Lexicon
	byItem map[int]map[int]int // item -> canonical word -> count
}

func newTally(lex *vocab.Lexicon) *Tally {
	return &Tally{lex: lex, byItem: make(map[int]map[int]int)}
}

// Record adds one agreement on word for item.
func (t *Tally) Record(item, word int) {
	m := t.byItem[item]
	if m == nil {
		m = make(map[int]int)
		t.byItem[item] = m
	}
	m[t.lex.Canonical(word)]++
}

// Count returns the agreement count for word (by concept) on item.
func (t *Tally) Count(item, word int) int {
	return t.byItem[item][t.lex.Canonical(word)]
}

// LabelsFor returns the words agreed on for item, most agreed first (ties
// broken by word ID for determinism).
func (t *Tally) LabelsFor(item int) []Label {
	m := t.byItem[item]
	out := make([]Label, 0, len(m))
	for w, c := range m {
		out = append(out, Label{Word: w, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// Total returns the total number of recorded agreements.
func (t *Tally) Total() int {
	n := 0
	for _, m := range t.byItem {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// pickObject returns a random image and the word of a random real object
// in it — the task generator of the games that locate objects.
func pickObject(src *rng.Source, c *vocab.Corpus) (imageID, word int) {
	img := c.Image(src.Intn(len(c.Images)))
	obj := img.Objects[src.Intn(len(img.Objects))]
	return img.ID, obj.Tag
}

// playInversion runs the inversion loop Peekaboom and Verbosity share. For
// each of at most min(maxHints, maxGuesses) hints, the narrator gives hint
// k and thinks, the guesser thinks and then either knows the secret —
// with probability its accuracy times reveal(k, hint), the share of the
// secret the hints so far give away — or makes a wild guess drawn from the
// lexicon. The round ends when the guess hits the secret or any of its
// synonyms.
func playInversion[H any](src *rng.Source, lex *vocab.Lexicon, secret, maxHints, maxGuesses int,
	narrator, guesser *worker.Worker, hint func(k int) H, reveal func(k int, h H) float64) (*agree.InversionRound[H], time.Duration) {
	round := agree.NewInversionRound[H](lex, agree.Canonical, secret)
	var elapsed time.Duration
	for k := 0; k < min(maxHints, maxGuesses); k++ {
		h := hint(k)
		elapsed += narrator.ThinkTime()
		if err := round.AddHint(h); err != nil {
			break
		}
		elapsed += guesser.ThinkTime()
		pKnow := guesser.Profile.Accuracy * reveal(k, h)
		guess := lex.SampleFrom(src)
		if src.Bool(pKnow) {
			guess = secret
		}
		solved, err := round.Guess(guess)
		if err != nil || solved {
			break
		}
	}
	return round, elapsed
}

// oneIf counts a round that validated one output.
func oneIf(ok bool) int {
	if ok {
		return 1
	}
	return 0
}
