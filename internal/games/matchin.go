package games

import (
	"math"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// MatchinConfig parameterizes a Matchin game.
type MatchinConfig struct {
	// K is the Elo update step.
	K float64
	// InitialRating is every image's starting Elo score.
	InitialRating float64
	Seed          uint64
}

// DefaultMatchinConfig uses chess-style Elo parameters.
func DefaultMatchinConfig() MatchinConfig {
	return MatchinConfig{K: 24, InitialRating: 1500, Seed: 1}
}

// MatchinRound summarizes one Matchin round.
type MatchinRound struct {
	ImageA, ImageB int
	Agreed         bool
	Winner         int // meaningful iff Agreed
	Duration       time.Duration
}

// Matchin is the preference game: two players see the same pair of images
// and each clicks the one they think their partner prefers; they score
// when they agree. Agreements are pairwise preference judgments, which an
// Elo rating system turns into a global "which image is nicer" ranking —
// the game's purpose.
type Matchin struct {
	Corpus  *vocab.Corpus
	Ranking *Elo
	cfg     MatchinConfig
	src     *rng.Source
}

// NewMatchin returns a game over corpus with the given configuration.
func NewMatchin(corpus *vocab.Corpus, cfg MatchinConfig) *Matchin {
	if cfg.K <= 0 {
		panic("games: Matchin Elo K must be positive")
	}
	return &Matchin{
		Corpus:  corpus,
		Ranking: NewElo(cfg.K, cfg.InitialRating),
		cfg:     cfg,
		src:     rng.New(cfg.Seed),
	}
}

// pickPair returns two distinct random image IDs.
func (g *Matchin) pickPair() (a, b int) {
	n := len(g.Corpus.Images)
	if n < 2 {
		panic("games: Matchin corpus needs at least two images")
	}
	a = g.src.Intn(n)
	b = g.src.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// Play compares a random pair of images; an agreed comparison is one
// output.
func (g *Matchin) Play(a, b *worker.Worker) (int, time.Duration) {
	x, y := g.pickPair()
	res := g.PlayRound(a, b, x, y)
	return oneIf(res.Agreed), res.Duration
}

// PlayRound shows both players the pair; if their choices agree the winner
// is recorded into the Elo ranking.
func (g *Matchin) PlayRound(pa, pb *worker.Worker, imgA, imgB int) MatchinRound {
	a := g.Corpus.Image(imgA)
	b := g.Corpus.Image(imgB)
	res := MatchinRound{ImageA: imgA, ImageB: imgB}
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

// Update records that winner beat loser.
func (e *Elo) Update(winner, loser int) {
	rw, rl := e.Rating(winner), e.Rating(loser)
	expected := 1 / (1 + math.Pow(10, (rl-rw)/400))
	e.ratings[winner] = rw + e.k*(1-expected)
	e.ratings[loser] = rl - e.k*(1-expected)
	e.games[winner]++
	e.games[loser]++
}
