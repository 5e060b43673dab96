// Package matchin implements Matchin, the preference GWAP: two players see
// the same pair of images and each clicks the one they think their partner
// prefers; they score when they agree. Agreements are pairwise preference
// judgments, which an Elo rating system turns into a global "which image is
// nicer" ranking — the game's purpose.
package matchin

import (
	"math"
	"sort"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Config parameterizes a Game.
type Config struct {
	// K is the Elo update step.
	K float64
	// InitialRating is every image's starting Elo score.
	InitialRating float64
	Seed          uint64
}

// DefaultConfig uses chess-style Elo parameters.
func DefaultConfig() Config {
	return Config{K: 24, InitialRating: 1500, Seed: 1}
}

// RoundResult summarizes one Matchin round.
type RoundResult struct {
	ImageA, ImageB int
	Agreed         bool
	Winner         int // meaningful iff Agreed
	Duration       time.Duration
}

// Game runs Matchin rounds over a corpus and maintains the Elo ranking.
type Game struct {
	Corpus  *vocab.Corpus
	Ranking *Elo
	cfg     Config
	src     *rng.Source
}

// New returns a game over corpus with the given configuration.
func New(corpus *vocab.Corpus, cfg Config) *Game {
	if cfg.K <= 0 {
		panic("matchin: Elo K must be positive")
	}
	return &Game{
		Corpus:  corpus,
		Ranking: NewElo(cfg.K, cfg.InitialRating),
		cfg:     cfg,
		src:     rng.New(cfg.Seed),
	}
}

// PickPair returns two distinct random image IDs.
func (g *Game) PickPair() (a, b int) {
	n := len(g.Corpus.Images)
	if n < 2 {
		panic("matchin: corpus needs at least two images")
	}
	a = g.src.Intn(n)
	b = g.src.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// PlayRound shows both players the pair; if their choices agree the winner
// is recorded into the Elo ranking.
func (g *Game) PlayRound(pa, pb *worker.Worker, imgA, imgB int) RoundResult {
	a := g.Corpus.Image(imgA)
	b := g.Corpus.Image(imgB)
	res := RoundResult{ImageA: imgA, ImageB: imgB}
	choiceA := pa.Compare(a, b)
	choiceB := pb.Compare(a, b)
	res.Duration = pa.ThinkTime() + pb.ThinkTime()
	if choiceA != choiceB {
		return res
	}
	res.Agreed = true
	if choiceA == 0 {
		res.Winner = imgA
		g.Ranking.Update(imgA, imgB)
	} else {
		res.Winner = imgB
		g.Ranking.Update(imgB, imgA)
	}
	return res
}

// Elo is a standard Elo rating table over image IDs.
type Elo struct {
	k       float64
	initial float64
	ratings map[int]float64
	games   map[int]int
}

// NewElo returns an empty table with update step k.
func NewElo(k, initial float64) *Elo {
	return &Elo{k: k, initial: initial, ratings: make(map[int]float64), games: make(map[int]int)}
}

// Rating returns id's current rating.
func (e *Elo) Rating(id int) float64 {
	if r, ok := e.ratings[id]; ok {
		return r
	}
	return e.initial
}

// Games returns how many recorded comparisons id has been part of.
func (e *Elo) Games(id int) int { return e.games[id] }

// Update records that winner beat loser.
func (e *Elo) Update(winner, loser int) {
	rw, rl := e.Rating(winner), e.Rating(loser)
	expected := 1 / (1 + math.Pow(10, (rl-rw)/400))
	e.ratings[winner] = rw + e.k*(1-expected)
	e.ratings[loser] = rl - e.k*(1-expected)
	e.games[winner]++
	e.games[loser]++
}

// Top returns the n highest-rated image IDs, best first (ties by ID).
func (e *Elo) Top(n int) []int {
	ids := make([]int, 0, len(e.ratings))
	for id := range e.ratings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ri, rj := e.ratings[ids[i]], e.ratings[ids[j]]
		if ri != rj {
			return ri > rj
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// Rated returns the number of images with at least one game.
func (e *Elo) Rated() int { return len(e.ratings) }
