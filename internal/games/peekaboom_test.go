package games

import (
	"testing"

	"humancomp/internal/vocab"
)

func peekaboomCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   200,
		MeanObjects: 3,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
}

func TestSolvedRoundsReturnPings(t *testing.T) {
	c := peekaboomCorpus(t)
	g := NewPeekaboom(c, 1)
	boom, peek := players(t, 3, 0.9)
	solved := 0
	const rounds = 300
	for i := 0; i < rounds; i++ {
		imgID, word := pickObject(g.src, g.Corpus)
		res := g.PlayRound(boom, peek, imgID, word)
		if res.Solved {
			solved++
			if len(res.Pings) == 0 {
				t.Fatal("solved round with no pings")
			}
		}
		if res.Tries == 0 {
			t.Fatal("round with zero guesses")
		}
	}
	if frac := float64(solved) / rounds; frac < 0.5 {
		t.Errorf("solve rate = %.2f with skilled players", frac)
	}
}

func TestUnskilledPeekSolvesLess(t *testing.T) {
	c := peekaboomCorpus(t)
	solveRate := func(acc float64) float64 {
		g := NewPeekaboom(c, 1)
		boom, peek := players(t, 5, acc)
		solved := 0
		const rounds = 300
		for i := 0; i < rounds; i++ {
			imgID, word := pickObject(g.src, g.Corpus)
			if g.PlayRound(boom, peek, imgID, word).Solved {
				solved++
			}
		}
		return float64(solved) / rounds
	}
	good, bad := solveRate(0.95), solveRate(0.55)
	if good <= bad {
		t.Errorf("solve rate good=%.2f <= bad=%.2f", good, bad)
	}
}

func BenchmarkPeekaboomPlayRound(b *testing.B) {
	c := peekaboomCorpus(b)
	g := NewPeekaboom(c, 1)
	boom, peek := players(b, 6, 0.9)
	for b.Loop() {
		imgID, word := pickObject(g.src, g.Corpus)
		g.PlayRound(boom, peek, imgID, word)
	}
}
