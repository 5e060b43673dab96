package games

import (
	"testing"

	"humancomp/internal/rng"
	"humancomp/internal/search"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func phetchCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 400, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   200,
		MeanObjects: 4,
		CanvasW:     640, CanvasH: 480,
		Seed: 2,
	})
}

func crew(tb testing.TB, seed uint64, accuracy float64) (*worker.Worker, []*worker.Worker) {
	tb.Helper()
	src := rng.New(seed)
	p := worker.Profile{Accuracy: accuracy}
	describer := worker.New("describer", worker.Honest, p, src)
	seekers := []*worker.Worker{
		worker.New("seek1", worker.Honest, p, src),
		worker.New("seek2", worker.Honest, p, src),
	}
	return describer, seekers
}

func TestSolvedRoundsCarryCaptions(t *testing.T) {
	c := phetchCorpus(t)
	g := NewPhetch(c, GroundTruthIndex(c), 1)
	describer, seekers := crew(t, 3, 0.9)
	solved, rounds := 0, 300
	for i := 0; i < rounds; i++ {
		res := g.PlayRound(describer, seekers, g.PickImage())
		if res.Solved {
			solved++
			if len(res.Caption) == 0 || res.Finder == "" {
				t.Fatal("solved round missing caption or finder")
			}
		}
	}
	if frac := float64(solved) / float64(rounds); frac < 0.5 {
		t.Errorf("solve rate = %.2f with a ground-truth index", frac)
	}
}

// TestCollectedCaptionsKeepTheirRanks collects the captions of solved
// rounds, the game's output, and ranks each again once all rounds are
// played: a caption a later round overwrote would rank differently.
func TestCollectedCaptionsKeepTheirRanks(t *testing.T) {
	c := phetchCorpus(t)
	g := NewPhetch(c, GroundTruthIndex(c), 1)
	describer, seekers := crew(t, 5, 0.9)
	var solved []PhetchRound
	for i := 0; i < 100; i++ {
		if res := g.PlayRound(describer, seekers, g.PickImage()); res.Solved {
			solved = append(solved, res)
		}
	}
	if len(solved) == 0 {
		t.Fatal("no round solved")
	}
	for _, res := range solved {
		if got := g.Index.Rank(res.Caption, res.ImageID); got != res.Rank {
			t.Fatalf("image %d caption %v ranks %d, the round searched it at %d", res.ImageID, res.Caption, got, res.Rank)
		}
	}
}

func TestValidationRaisesCaptionQuality(t *testing.T) {
	c := phetchCorpus(t)
	g := NewPhetch(c, GroundTruthIndex(c), 1)
	describer, seekers := crew(t, 4, 0.82)
	trueFrac := func(img int, caption []int) (int, int) {
		trueWords := 0
		for _, w := range caption {
			if c.IsTrueTag(img, w) {
				trueWords++
			}
		}
		return trueWords, len(caption)
	}
	var solvedTrue, solvedTotal, failedTrue, failedTotal int
	for i := 0; i < 600; i++ {
		res := g.PlayRound(describer, seekers, g.PickImage())
		tw, n := trueFrac(res.ImageID, res.Caption)
		if res.Solved {
			solvedTrue += tw
			solvedTotal += n
		} else {
			failedTrue += tw
			failedTotal += n
		}
	}
	if solvedTotal == 0 || failedTotal == 0 {
		t.Skip("need both solved and failed rounds to compare")
	}
	solved := float64(solvedTrue) / float64(solvedTotal)
	failed := float64(failedTrue) / float64(failedTotal)
	// Captions are 6 words on ~4-object images, so some filler is
	// structural; the claim is that validation selects the descriptive
	// ones — a junk caption cannot retrieve its image for the seekers.
	if solved <= failed {
		t.Errorf("validated caption quality %.2f not above unvalidated %.2f", solved, failed)
	}
	if solved < 0.55 {
		t.Errorf("validated caption true-word fraction = %.2f", solved)
	}
}

func TestRankRecordedForSolvableRounds(t *testing.T) {
	c := phetchCorpus(t)
	g := NewPhetch(c, GroundTruthIndex(c), 1)
	describer, seekers := crew(t, 5, 0.95)
	sawRanked := false
	for i := 0; i < 100; i++ {
		res := g.PlayRound(describer, seekers, g.PickImage())
		if res.Solved {
			if res.Rank < 1 || res.Rank > phetchTopK {
				t.Fatalf("solved round with target rank %d outside top-%d", res.Rank, phetchTopK)
			}
			sawRanked = true
		}
	}
	if !sawRanked {
		t.Fatal("no solved rounds to check")
	}
}

func TestEmptyIndexNeverSolves(t *testing.T) {
	c := phetchCorpus(t)
	g := NewPhetch(c, search.NewIndex(), 1)
	describer, seekers := crew(t, 6, 0.95)
	for i := 0; i < 50; i++ {
		if g.PlayRound(describer, seekers, g.PickImage()).Solved {
			t.Fatal("round solved against an empty index")
		}
	}
}

func TestUnskilledSeekersSolveLess(t *testing.T) {
	c := phetchCorpus(t)
	solveRate := func(acc float64) float64 {
		g := NewPhetch(c, GroundTruthIndex(c), 1)
		describer, seekers := crew(t, 7, acc)
		solved := 0
		const rounds = 300
		for i := 0; i < rounds; i++ {
			if g.PlayRound(describer, seekers, g.PickImage()).Solved {
				solved++
			}
		}
		return float64(solved) / rounds
	}
	if good, bad := solveRate(0.95), solveRate(0.55); good <= bad {
		t.Errorf("solve rate good=%.2f <= bad=%.2f", good, bad)
	}
}

func BenchmarkPhetchPlayRound(b *testing.B) {
	c := phetchCorpus(b)
	g := NewPhetch(c, GroundTruthIndex(c), 1)
	describer, seekers := crew(b, 8, 0.9)
	for b.Loop() {
		g.PlayRound(describer, seekers, g.PickImage())
	}
}
