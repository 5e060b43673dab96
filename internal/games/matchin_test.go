package games

import (
	"math"
	mathrand "math/rand"
	"sort"
	"testing"
	"testing/quick"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

func matchinCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 100, ZipfS: 1, Seed: 1},
		NumImages:   60,
		MeanObjects: 2,
		CanvasW:     320,
		CanvasH:     240,
		Seed:        2,
	})
}

func TestPickPairDistinct(t *testing.T) {
	g := NewMatchin(matchinCorpus(t), 1)
	for i := 0; i < 200; i++ {
		a, b := g.pickPair()
		if a == b {
			t.Fatal("pickPair returned identical images")
		}
	}
}

func TestEloLearnsAestheticOrder(t *testing.T) {
	c := matchinCorpus(t)
	g := NewMatchin(c, 1)
	pa, pb := players(t, 3, 0.9)
	for i := 0; i < 8000; i++ {
		a, b := g.pickPair()
		g.PlayRound(pa, pb, a, b)
	}
	tau := g.Ranking.KendallTau(func(id int) float64 { return c.Image(id).Aesthetic }, 5)
	if tau < 0.5 {
		t.Errorf("Kendall tau vs true aesthetics = %.2f, want > 0.5", tau)
	}
	// Top-rated images should be genuinely high-aesthetic.
	top := g.Ranking.Top(5)
	if len(top) == 0 {
		t.Fatal("no rated images")
	}
	meanTop := 0.0
	for _, id := range top {
		meanTop += c.Image(id).Aesthetic
	}
	meanTop /= float64(len(top))
	if meanTop < 0.6 {
		t.Errorf("mean aesthetic of top-5 = %.2f", meanTop)
	}
}

func TestAgreementRequiresSameChoice(t *testing.T) {
	c := matchinCorpus(t)
	g := NewMatchin(c, 1)
	pa, pb := players(t, 4, 0.9)
	agreed, rounds := 0, 500
	for i := 0; i < rounds; i++ {
		a, b := g.pickPair()
		res := g.PlayRound(pa, pb, a, b)
		if res.Agreed {
			agreed++
			if res.Winner != res.ImageA && res.Winner != res.ImageB {
				t.Fatal("winner not one of the pair")
			}
		}
	}
	if agreed == 0 || agreed == rounds {
		t.Fatalf("agreement count degenerate: %d/%d", agreed, rounds)
	}
}

func TestEloUpdateZeroSum(t *testing.T) {
	e := NewElo()
	e.Update(1, 2)
	sum := e.Rating(1) + e.Rating(2)
	if math.Abs(sum-3000) > 1e-9 {
		t.Errorf("ratings sum = %v, want conserved 3000", sum)
	}
	if e.Rating(1) <= 1500 || e.Rating(2) >= 1500 {
		t.Error("winner did not gain / loser did not lose")
	}
	if e.Games(1) != 1 || e.Games(2) != 1 || e.Rated() != 2 {
		t.Error("game counts wrong")
	}
}

func TestEloUpsetMovesMore(t *testing.T) {
	e := NewElo()
	// Build a favorite.
	for i := 0; i < 20; i++ {
		e.Update(1, 2)
	}
	strong := e.Rating(1)
	weak := e.Rating(2)
	// Expected win barely moves ratings; upset moves them a lot.
	e.Update(1, 2)
	expectedGain := e.Rating(1) - strong
	e2 := NewElo()
	for i := 0; i < 20; i++ {
		e2.Update(1, 2)
	}
	e2.Update(2, 1)
	upsetGain := e2.Rating(2) - weak
	if upsetGain <= expectedGain {
		t.Errorf("upset gain %.2f <= expected-win gain %.2f", upsetGain, expectedGain)
	}
}

func TestKendallTauBounds(t *testing.T) {
	e := NewElo()
	// Perfectly ordered tournament: higher ID always wins.
	for a := 0; a < 10; a++ {
		for b := 0; b < a; b++ {
			for k := 0; k < 3; k++ {
				e.Update(a, b)
			}
		}
	}
	tau := e.KendallTau(func(id int) float64 { return float64(id) }, 1)
	if tau < 0.9 {
		t.Errorf("tau = %.2f for consistent tournament", tau)
	}
	antiTau := e.KendallTau(func(id int) float64 { return -float64(id) }, 1)
	if antiTau > -0.9 {
		t.Errorf("anti-tau = %.2f", antiTau)
	}
	empty := NewElo()
	if empty.KendallTau(func(int) float64 { return 0 }, 1) != 0 {
		t.Error("empty table tau should be 0")
	}
}

func TestTopOrdering(t *testing.T) {
	e := NewElo()
	e.Update(5, 3)
	e.Update(5, 3)
	e.Update(3, 1)
	top := e.Top(10)
	if len(top) != 3 || top[0] != 5 {
		t.Fatalf("Top = %v", top)
	}
	if got := e.Top(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Top(1) = %v", got)
	}
}

func BenchmarkMatchinPlayRound(b *testing.B) {
	c := matchinCorpus(b)
	g := NewMatchin(c, 1)
	pa, pb := players(b, 5, 0.9)
	for b.Loop() {
		x, y := g.pickPair()
		g.PlayRound(pa, pb, x, y)
	}
}

// TestEloZeroSumProperty: any sequence of updates conserves total rating.
func TestEloZeroSumProperty(t *testing.T) {
	src := rng.New(9)
	f := func(gamesRaw []uint8) bool {
		e := NewElo()
		ids := map[int]bool{}
		for _, g := range gamesRaw {
			a := int(g % 7)
			b := int((g / 7) % 7)
			if a == b {
				continue
			}
			e.Update(a, b)
			ids[a], ids[b] = true, true
		}
		sum := 0.0
		for id := range ids {
			sum += e.Rating(id)
		}
		want := 1500 * float64(len(ids))
		return math.Abs(sum-want) < 1e-6*math.Max(want, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: quickRand(src)}); err != nil {
		t.Error(err)
	}
}

// quickRand adapts our deterministic source to testing/quick.
func quickRand(src *rng.Source) *mathrand.Rand {
	return mathrand.New(mathrand.NewSource(int64(src.Uint64() >> 1)))
}

// KendallTau computes the Kendall rank correlation between the Elo ranking
// and a ground-truth score function over the rated images — the evaluation
// metric for "did the game learn the true preference order". Images with
// fewer than minGames comparisons are ignored. Returns 0 when fewer than
// two images qualify.
func (e *Elo) KendallTau(truth func(id int) float64, minGames int) float64 {
	var ids []int
	for id := range e.ratings {
		if e.games[id] >= minGames {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	if len(ids) < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			dr := e.Rating(ids[i]) - e.Rating(ids[j])
			dt := truth(ids[i]) - truth(ids[j])
			switch {
			case dr*dt > 0:
				concordant++
			case dr*dt < 0:
				discordant++
			}
		}
	}
	total := concordant + discordant
	if total == 0 {
		return 0
	}
	return float64(concordant-discordant) / float64(total)
}

// Games returns how many recorded comparisons id has been part of.
func (e *Elo) Games(id int) int { return e.games[id] }

// Rated returns the number of images with at least one game.
func (e *Elo) Rated() int { return len(e.ratings) }

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
