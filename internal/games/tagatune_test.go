package games

import (
	"testing"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func tagatuneCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   150,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
}

// TestPickPairRespectsSameProb pins the pair draw: a pair is "same"
// exactly when its two items are equal, and over a few hundred draws both
// kinds occur.
func TestPickPairRespectsSameProb(t *testing.T) {
	g := NewTagATune(tagatuneCorpus(t), 1)
	var kinds [2]int
	for i := 0; i < 300; i++ {
		a, b, same := g.pickPair()
		if same != (a == b) {
			t.Fatalf("pair (%d, %d) reported same=%v", a, b, same)
		}
		kinds[oneIf(same)]++
	}
	if kinds[0] == 0 || kinds[1] == 0 {
		t.Fatalf("300 draws gave %d different and %d same pairs", kinds[0], kinds[1])
	}
}

func TestSkilledPlayersSucceedOften(t *testing.T) {
	c := tagatuneCorpus(t)
	g := NewTagATune(c, 1)
	pa, pb := players(t, 3, 0.92)
	success, rounds := 0, 400
	for i := 0; i < rounds; i++ {
		a, b, _ := g.pickPair()
		res := g.PlayRound(pa, pb, a, b)
		if res.Success {
			success++
			if res.Validated == 0 {
				t.Fatal("successful round validated no descriptions")
			}
		}
	}
	// Both must judge correctly: ~0.92² ≈ 0.85 expected.
	if frac := float64(success) / float64(rounds); frac < 0.7 {
		t.Errorf("success rate = %.2f with skilled players", frac)
	}
	if g.Annotations.Total() == 0 {
		t.Fatal("no annotations collected")
	}
}

func TestValidatedAnnotationsAreMostlyTrue(t *testing.T) {
	c := tagatuneCorpus(t)
	g := NewTagATune(c, 1)
	pa, pb := players(t, 4, 0.9)
	for i := 0; i < 500; i++ {
		a, b, _ := g.pickPair()
		g.PlayRound(pa, pb, a, b)
	}
	good, total := 0, 0
	for item := 0; item < len(c.Images); item++ {
		img := c.Image(item)
		for _, o := range img.Objects {
			n := g.Annotations.Count(item, o.Tag)
			good += n
			total += n
		}
	}
	// Count non-true annotations by comparing store total.
	junk := g.Annotations.Total() - good
	if total == 0 {
		t.Skip("no true annotations to assess")
	}
	if frac := float64(good) / float64(g.Annotations.Total()); frac < 0.6 {
		t.Errorf("true-annotation fraction = %.2f (junk %d)", frac, junk)
	}
}

func TestFailureValidatesNothing(t *testing.T) {
	c := tagatuneCorpus(t)
	g := NewTagATune(c, 1)
	src := rng.New(5)
	// Spammers judge randomly, so most rounds fail and validate nothing.
	pa := worker.New("s1", worker.Spammer, worker.Profile{Accuracy: 0.9}, src)
	pb := worker.New("s2", worker.Spammer, worker.Profile{Accuracy: 0.9}, src)
	success := 0
	for i := 0; i < 200; i++ {
		a, b, _ := g.pickPair()
		if g.PlayRound(pa, pb, a, b).Success {
			success++
		}
	}
	// Spammers are never "correct" in Judge, so every round must fail.
	if success != 0 {
		t.Errorf("spammer rounds succeeded %d times", success)
	}
	if g.Annotations.Total() != 0 {
		t.Error("failed rounds contributed annotations")
	}
}

func BenchmarkTagATunePlayRound(b *testing.B) {
	c := tagatuneCorpus(b)
	g := NewTagATune(c, 1)
	pa, pb := players(b, 6, 0.9)
	for b.Loop() {
		a2, b2, _ := g.pickPair()
		g.PlayRound(pa, pb, a2, b2)
	}
}
