package games

import (
	"math"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Matchin ranks images with chess-style Elo parameters.
const (
	// eloK is the Elo update step.
	eloK = 24
	// eloInitial is every image's starting Elo score.
	eloInitial = 1500
)

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
	src     *rng.Source
}

// NewMatchin returns a game over corpus whose random draws are seeded with
// seed.
func NewMatchin(corpus *vocab.Corpus, seed uint64) *Matchin {
	return &Matchin{
		Corpus:  corpus,
		Ranking: NewElo(),
		src:     rng.New(seed),
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
	ratings map[int]float64
	games   map[int]int
}

// NewElo returns an empty table.
func NewElo() *Elo {
	return &Elo{ratings: make(map[int]float64), games: make(map[int]int)}
}

// Rating returns id's current rating.
func (e *Elo) Rating(id int) float64 {
	if r, ok := e.ratings[id]; ok {
		return r
	}
	return eloInitial
}

// Update records that winner beat loser.
func (e *Elo) Update(winner, loser int) {
	rw, rl := e.Rating(winner), e.Rating(loser)
	expected := 1 / (1 + math.Pow(10, (rl-rw)/400))
	e.ratings[winner] = rw + eloK*(1-expected)
	e.ratings[loser] = rl - eloK*(1-expected)
	e.games[winner]++
	e.games[loser]++
}
