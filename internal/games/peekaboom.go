package games

import (
	"math"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Ping is one reveal click.
type Ping struct {
	X, Y int
}

// Peekaboom's rules, as deployed: a handful of reveals, guesses to match.
const (
	// peekaboomMaxPings bounds Boom's reveals per round.
	peekaboomMaxPings = 8
	// peekaboomMaxGuesses bounds Peek's guesses per round.
	peekaboomMaxGuesses = 6
)

// PeekaboomRound summarizes one Boom/Peek round.
type PeekaboomRound struct {
	ImageID  int
	Word     int
	Solved   bool
	Pings    []Ping
	Tries    int
	Duration time.Duration
}

// Peekaboom is the inversion-problem game that locates objects inside
// images. "Boom" sees the image and a target word and reveals the image to
// "Peek" one click at a time; Peek types guesses until they hit the word.
// A solved round certifies that the revealed clicks were informative, so
// the clicks from many solved rounds aggregate into a bounding box for the
// object.
type Peekaboom struct {
	Corpus *vocab.Corpus
	src    *rng.Source
}

// NewPeekaboom returns a game over corpus whose random draws are seeded
// with seed.
func NewPeekaboom(corpus *vocab.Corpus, seed uint64) *Peekaboom {
	return &Peekaboom{
		Corpus: corpus,
		src:    rng.New(seed),
	}
}

// Play locates a random real object, as the deployed server's task
// generator did; a solved round is one output.
func (g *Peekaboom) Play(boom, peek *worker.Worker) (int, time.Duration) {
	imgID, word := pickObject(g.src, g.Corpus)
	res := g.PlayRound(boom, peek, imgID, word)
	return oneIf(res.Solved), res.Duration
}

// PlayRound runs one round: boom reveals, peek guesses. The pings of a
// solved round are the round's output: clicks certified to be on the
// object, from which a caller fits its box.
func (g *Peekaboom) PlayRound(boom, peek *worker.Worker, imageID, word int) PeekaboomRound {
	round, elapsed := playInversion(g.src, g.Corpus.Lexicon, word, peekaboomMaxPings, peekaboomMaxGuesses, boom, peek,
		func(int) Ping {
			x, y := boom.Ping(g.Corpus, imageID, word)
			return Ping{X: x, Y: y}
		},
		// The chance of recognizing the object grows with revealed area.
		func(k int, _ Ping) float64 { return 1 - math.Exp(-float64(k+1)/2) })
	res := PeekaboomRound{
		ImageID:  imageID,
		Word:     word,
		Solved:   round.Solved(),
		Pings:    round.Hints(),
		Tries:    round.Tries(),
		Duration: elapsed,
	}
	return res
}
