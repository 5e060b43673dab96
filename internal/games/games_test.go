package games

import (
	"testing"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// players returns two honest workers with the given accuracy and no think
// time, drawn from seed.
func players(tb testing.TB, seed uint64, accuracy float64) (*worker.Worker, *worker.Worker) {
	tb.Helper()
	src := rng.New(seed)
	p := worker.Profile{Accuracy: accuracy}
	return worker.New("a", worker.Honest, p, src), worker.New("b", worker.Honest, p, src)
}

// TestTally covers the store ESP's labels and TagATune's validated
// descriptions share: counts per item and concept, most agreed first,
// and synonyms pooling under one concept.
func TestTally(t *testing.T) {
	lex := vocab.NewLexicon(vocab.LexiconConfig{Size: 50, ZipfS: 1, SynonymRate: 0.5, Seed: 1})
	s := newTally(lex)
	s.Record(1, 4)
	s.Record(1, 4)
	s.Record(1, 9)
	s.Record(3, 7)
	if s.Count(1, 4) != 2 || s.Count(3, 7) != 1 || s.Count(3, 4) != 0 {
		t.Fatalf("Count = %d, %d, %d", s.Count(1, 4), s.Count(3, 7), s.Count(3, 4))
	}
	labels := s.LabelsFor(1)
	if len(labels) != 2 || labels[0].Count < labels[1].Count {
		t.Fatalf("LabelsFor = %+v", labels)
	}
	if len(s.LabelsFor(2)) != 0 {
		t.Fatalf("LabelsFor(unlabeled) = %+v", s.LabelsFor(2))
	}
	if s.Items() != 2 || s.Total() != 4 {
		t.Fatalf("Items=%d Total=%d", s.Items(), s.Total())
	}
	// Synonyms pool.
	var a, b int = -1, -1
	for id := 0; id < lex.Size(); id++ {
		if g := lex.Synonyms(id); len(g) >= 2 {
			a, b = g[0], g[1]
			break
		}
	}
	if a < 0 {
		t.Fatal("lexicon has no synonym group")
	}
	s.Record(2, a)
	s.Record(2, b)
	if s.Count(2, a) != 2 || s.Count(2, b) != 2 {
		t.Error("synonym labels did not pool")
	}
}

// TestPlayIsPickThenPlayRound checks that each game's crowd round is the
// round its PlayRound plays on the item its picker draws, with the
// validated outputs counted: two games built from one seed, one driven
// through Play and one by hand, must agree round for round.
func TestPlayIsPickThenPlayRound(t *testing.T) {
	c := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   120,
		MeanObjects: 3,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
	fb := vocab.NewFactBase(vocab.FactBaseConfig{Lexicon: vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1}, FactsPerWord: 5, Seed: 2})
	ix := GroundTruthIndex(c)
	type round func(a, b *worker.Worker) (int, time.Duration)
	for _, tc := range []struct {
		name string
		// build returns a fresh game's Play and the same game's pick and
		// PlayRound spelled out.
		build func() (sim.PairGame, round)
	}{
		{"esp", func() (sim.PairGame, round) {
			g := NewESP(c, DefaultESPConfig())
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				img, _ := g.PickImage()
				r := g.PlayRound(a, b, img)
				return oneIf(r.Agreed), r.Duration
			}
		}},
		{"peekaboom", func() (sim.PairGame, round) {
			g := NewPeekaboom(c, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				img, word := pickObject(g.src, g.Corpus)
				r := g.PlayRound(a, b, img, word)
				return oneIf(r.Solved), r.Duration
			}
		}},
		{"verbosity", func() (sim.PairGame, round) {
			g := NewVerbosity(fb, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				r := g.PlayRound(a, b, g.pickConcept())
				return len(r.Hints) * oneIf(r.Solved), r.Duration
			}
		}},
		{"tagatune", func() (sim.PairGame, round) {
			g := NewTagATune(c, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				x, y, _ := g.pickPair()
				r := g.PlayRound(a, b, x, y)
				return r.Validated, r.Duration
			}
		}},
		{"matchin", func() (sim.PairGame, round) {
			g := NewMatchin(c, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				x, y := g.pickPair()
				r := g.PlayRound(a, b, x, y)
				return oneIf(r.Agreed), r.Duration
			}
		}},
		{"squigl", func() (sim.PairGame, round) {
			g := NewSquigl(c, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				img, word := pickObject(g.src, g.Corpus)
				r := g.PlayRound(a, b, img, word)
				return oneIf(r.Agreed), r.Duration
			}
		}},
		{"phetch", func() (sim.PairGame, round) {
			g := NewPhetch(c, ix, 1)
			return g, func(a, b *worker.Worker) (int, time.Duration) {
				r := g.PlayRound(a, []*worker.Worker{b}, g.PickImage())
				return oneIf(r.Solved), r.Duration
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			game, _ := tc.build()
			_, byHand := tc.build()
			a1, b1 := players(t, 5, 0.85)
			a2, b2 := players(t, 5, 0.85)
			total := 0
			for i := 0; i < 200; i++ {
				n1, d1 := game.Play(a1, b1)
				n2, d2 := byHand(a2, b2)
				if n1 != n2 || d1 != d2 {
					t.Fatalf("round %d: Play = (%d, %v), pick + PlayRound = (%d, %v)", i, n1, d1, n2, d2)
				}
				total += n1
			}
			if total == 0 {
				t.Error("200 rounds validated no output")
			}
		})
	}
}
