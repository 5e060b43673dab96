package games

import (
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// TagATune's rules, as deployed: half the rounds are "same", three
// descriptions each.
const (
	// sameProb is the probability a round presents identical inputs.
	sameProb = 0.5
	// maxTags bounds each player's descriptions per round.
	maxTags = 3
)

// TagATuneRound summarizes one input-agreement round.
type TagATuneRound struct {
	ItemA, ItemB int
	Same         bool
	Success      bool
	Validated    int // descriptions validated by this round
	Duration     time.Duration
}

// TagATune is the input-agreement game: two players each receive an item
// (the same one, or different ones), exchange free-text descriptions, and
// must decide whether their inputs match. Because honest play requires
// faithfully describing your own input, a successful round (both correct)
// validates the exchanged descriptions as annotations. The mechanism works
// for any media; the simulation uses the image corpus as its items.
type TagATune struct {
	Corpus      *vocab.Corpus
	Annotations *Tally
	src         *rng.Source
}

// NewTagATune returns a game over corpus whose random draws are seeded
// with seed.
func NewTagATune(corpus *vocab.Corpus, seed uint64) *TagATune {
	return &TagATune{
		Corpus:      corpus,
		Annotations: newTally(corpus.Lexicon),
		src:         rng.New(seed),
	}
}

// pickPair returns the two item IDs for a round and whether they are the same.
func (g *TagATune) pickPair() (a, b int, same bool) {
	n := len(g.Corpus.Images)
	a = g.src.Intn(n)
	if g.src.Bool(sameProb) || n == 1 {
		return a, a, true
	}
	for {
		b = g.src.Intn(n)
		if b != a {
			return a, b, false
		}
	}
}

// Play plays one round on a random pair of items; each validated
// description is one output.
func (g *TagATune) Play(a, b *worker.Worker) (int, time.Duration) {
	itemA, itemB, _ := g.pickPair()
	res := g.PlayRound(a, b, itemA, itemB)
	return res.Validated, res.Duration
}

// PlayRound runs one round between two workers on the given items.
// On success both players' descriptions are recorded as annotations.
func (g *TagATune) PlayRound(pa, pb *worker.Worker, itemA, itemB int) TagATuneRound {
	same := itemA == itemB
	round := agree.NewInputRound(same)
	res := TagATuneRound{ItemA: itemA, ItemB: itemB, Same: same}
	var elapsed time.Duration

	players := [2]*worker.Worker{pa, pb}
	items := [2]int{itemA, itemB}
	for i, w := range players {
		said := map[int]bool{}
		for k := 0; k < maxTags; k++ {
			elapsed += w.ThinkTime()
			tag := w.GuessTag(g.Corpus.Lexicon, g.Corpus.Image(items[i]), nil, said)
			if tag < 0 {
				break
			}
			said[g.Corpus.Lexicon.Canonical(tag)] = true
			if err := round.Describe(i, tag); err != nil {
				break
			}
		}
		elapsed += w.ThinkTime()
		// The same/different judgment: honest workers are right with
		// probability Accuracy; adversaries answer noise.
		if err := round.Vote(i, w.Judge(same)); err != nil {
			break
		}
	}
	res.Duration = elapsed
	if round.Success() {
		res.Success = true
		for i := range players {
			for _, tag := range round.Tags(i) {
				g.Annotations.Record(items[i], tag)
				res.Validated++
			}
		}
	}
	return res
}
