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

func TestRoundsSolveAndRecordPings(t *testing.T) {
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
			if len(g.Boxes.pings[objectKey{imgID, word}]) == 0 {
				t.Fatal("solved round did not record pings")
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

func TestAggregatedBoxOverlapsTruth(t *testing.T) {
	c := peekaboomCorpus(t)
	g := NewPeekaboom(c, 1)
	boom, peek := players(t, 4, 0.95)

	// Hammer one object until it has enough pings for a box.
	imgID := 0
	word := c.Image(imgID).Objects[0].Tag
	for i := 0; i < 200; i++ {
		g.PlayRound(boom, peek, imgID, word)
		if len(g.Boxes.pings[objectKey{imgID, word}]) >= minPingsForBox {
			break
		}
	}
	box, ok := g.Boxes.Box(imgID, word)
	if !ok {
		t.Fatalf("no box after %d pings", len(g.Boxes.pings[objectKey{imgID, word}]))
	}
	truth, _ := c.TrueBox(imgID, word)
	if iou := box.IoU(truth); iou < 0.3 {
		t.Errorf("aggregated box IoU = %.2f, want > 0.3 (box %+v truth %+v)", iou, box, truth)
	}
}

func TestBoxRequiresMinPings(t *testing.T) {
	s := NewBoxStore()
	for i := 0; i < minPingsForBox-1; i++ {
		s.Record(1, 2, []Ping{{10 + i, 10 + i}})
	}
	if _, ok := s.Box(1, 2); ok {
		t.Fatal("box emitted below minPingsForBox")
	}
	s.Record(1, 2, []Ping{{30, 30}})
	if _, ok := s.Box(1, 2); !ok {
		t.Fatal("box not emitted at minPingsForBox")
	}
	if len(s.pings) != 1 {
		t.Fatalf("objects = %d", len(s.pings))
	}
}

func TestTrimRejectsOutliers(t *testing.T) {
	s := NewBoxStore()
	pings := make([]Ping, 0, 20)
	for i := 0; i < 18; i++ {
		pings = append(pings, Ping{X: 100 + i, Y: 200 + i})
	}
	// Two wild outliers (a cheater's random clicks).
	pings = append(pings, Ping{X: 600, Y: 5}, Ping{X: 2, Y: 470})
	s.Record(1, 1, pings)
	box, ok := s.Box(1, 1)
	if !ok {
		t.Fatal("no box")
	}
	if box.X < 90 || box.X+box.W > 130 || box.Y < 190 || box.Y+box.H > 230 {
		t.Errorf("outliers leaked into box: %+v", box)
	}

	// The pings' own extent includes them: the trim is what kept them out.
	minX, maxX := pings[0].X, pings[0].X
	for _, p := range pings {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
	}
	if maxX-minX+1 <= box.W {
		t.Errorf("ping extent [%d, %d] not wider than trimmed %+v", minX, maxX, box)
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
