package games

import (
	"testing"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/rng"
	"humancomp/internal/search"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func espCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 400, ZipfS: 1, SynonymRate: 0.25, Seed: 1},
		NumImages:   300,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
}

func espPair(tb testing.TB, seed uint64) (*worker.Worker, *worker.Worker) {
	tb.Helper()
	src := rng.New(seed)
	cfg := worker.DefaultPopulationConfig(2)
	p := worker.SampleProfile(cfg, src)
	p.ThinkMean = 0 // keep unit tests fast and deterministic in shape
	a := worker.New("a", worker.Honest, p, src)
	b := worker.New("b", worker.Honest, p, src)
	return a, b
}

func TestRoundsProduceMostlyTrueLabels(t *testing.T) {
	c := espCorpus(t)
	g := NewESP(c, DefaultESPConfig())
	a, b := espPair(t, 3)
	agreedTrue, agreedTotal := 0, 0
	for imgID := 0; imgID < 200; imgID++ {
		res := g.PlayRound(a, b, imgID)
		if !res.Agreed {
			continue
		}
		agreedTotal++
		if c.IsTrueTag(res.ImageID, res.Word) {
			agreedTrue++
		}
	}
	if agreedTotal < 100 {
		t.Fatalf("only %d/200 rounds agreed; game is broken", agreedTotal)
	}
	// The ESP evaluation found ~85% of agreed labels good; with honest
	// 0.85-accuracy players agreement should filter most noise.
	if frac := float64(agreedTrue) / float64(agreedTotal); frac < 0.8 {
		t.Errorf("true-label fraction = %.2f (%d/%d)", frac, agreedTrue, agreedTotal)
	}
}

func TestAgreementUpdatesStores(t *testing.T) {
	c := espCorpus(t)
	g := NewESP(c, DefaultESPConfig())
	a, b := espPair(t, 4)
	var res ESPRound
	imgID := -1
	for i := 0; i < 100; i++ {
		res = g.PlayRound(a, b, i)
		if res.Agreed {
			imgID = i
			break
		}
	}
	if imgID < 0 {
		t.Fatal("no round agreed in 100 images")
	}
	if g.Labels.Count(imgID, res.Word) != 1 {
		t.Error("agreed label not recorded")
	}
	// With PromoteAfter=1 the word is immediately taboo for that image.
	found := false
	for _, w := range g.Taboo().TabooFor(imgID) {
		if c.Lexicon.AreSynonyms(w, res.Word) {
			found = true
		}
	}
	if !found {
		t.Error("agreed word not promoted to taboo")
	}
}

func TestTabooForcesFreshLabels(t *testing.T) {
	c := espCorpus(t)
	g := NewESP(c, DefaultESPConfig())
	const imgID = 7
	seen := map[int]bool{}
	for round := 0; round < 30; round++ {
		a, b := espPair(t, uint64(100+round))
		res := g.PlayRound(a, b, imgID)
		if !res.Agreed {
			continue
		}
		can := c.Lexicon.Canonical(res.Word)
		if seen[can] {
			t.Fatalf("round %d re-agreed taboo concept %d", round, can)
		}
		seen[can] = true
	}
	if len(seen) < 2 {
		t.Skipf("only %d agreements on image %d; cannot exercise taboo", len(seen), imgID)
	}
}

func TestRetirement(t *testing.T) {
	c := espCorpus(t)
	cfg := DefaultESPConfig()
	cfg.RetireAt = 1
	g := NewESP(c, cfg)
	a, b := espPair(t, 5)
	retired := 0
	for imgID := 0; imgID < 100; imgID++ {
		if res := g.PlayRound(a, b, imgID); res.Agreed {
			if !g.Taboo().Retired(imgID) {
				t.Fatalf("image %d not retired after 1 taboo word (RetireAt=1)", imgID)
			}
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("no image retired")
	}
	// PickImage must avoid retired images.
	for i := 0; i < 50; i++ {
		id, ok := g.PickImage()
		if !ok {
			break
		}
		if g.Taboo().Retired(id) {
			t.Fatal("PickImage returned a retired image")
		}
	}
}

func TestPickImageExhaustion(t *testing.T) {
	c := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 50, ZipfS: 1, Seed: 1},
		NumImages:   3,
		MeanObjects: 2,
		CanvasW:     100, CanvasH: 100,
		Seed: 3,
	})
	cfg := DefaultESPConfig()
	cfg.RetireAt = 1
	g := NewESP(c, cfg)
	a, b := espPair(t, 6)
	for round := 0; round < 60; round++ {
		id, ok := g.PickImage()
		if !ok {
			return // exhausted: success
		}
		g.PlayRound(a, b, id)
	}
	// Not necessarily exhausted (agreement is stochastic), so no failure;
	// but PickImage must still be functional.
	if _, ok := g.PickImage(); !ok {
		t.Log("corpus exhausted")
	}
}

func TestReplayRoundAgreesWithRecordedPartner(t *testing.T) {
	c := espCorpus(t)
	g := NewESP(c, DefaultESPConfig())
	a, b := espPair(t, 7)

	// Play a live round to produce a transcript, then replay it for a
	// third player on the same image.
	var live ESPRound
	imgID := -1
	for i := 0; i < 200; i++ {
		live = g.PlayRound(a, b, i)
		if live.Agreed && len(live.Guesses[0]) > 0 {
			imgID = i
			break
		}
	}
	if imgID < 0 {
		t.Fatal("no live agreement to record")
	}
	// Fresh game so the taboo from the live round doesn't block the replay.
	g2 := NewESP(c, DefaultESPConfig())
	src := rng.New(8)
	cfgPop := worker.DefaultPopulationConfig(1)
	p := worker.SampleProfile(cfgPop, src)
	p.ThinkMean = 0
	solo := worker.New("solo", worker.Honest, p, src)

	agreedOnce := false
	for i := 0; i < 10 && !agreedOnce; i++ {
		res := g2.PlayRoundReplay(solo, match.ReplaySession{Item: imgID, Player: "a", Words: live.Guesses[0]})
		agreedOnce = res.Agreed
		g2 = NewESP(c, DefaultESPConfig()) // reset taboo between attempts
	}
	if !agreedOnce {
		t.Error("solo player never agreed with a recorded transcript that contains true tags")
	}
}

func TestSpammerPairRarelyPollutes(t *testing.T) {
	c := espCorpus(t)
	g := NewESP(c, DefaultESPConfig())
	src := rng.New(9)
	prof := worker.Profile{Accuracy: 0.9}
	s1 := worker.New("s1", worker.Spammer, prof, src)
	s2 := worker.New("s2", worker.Spammer, prof, src)
	agreedTrue, agreedTotal := 0, 0
	for imgID := 0; imgID < 150; imgID++ {
		res := g.PlayRound(s1, s2, imgID)
		if res.Agreed {
			agreedTotal++
			if c.IsTrueTag(imgID, res.Word) {
				agreedTrue++
			}
		}
	}
	// Two independent spammers match easily on Zipf head words — exactly
	// the attack the taboo mechanism exists for — but the labels they
	// produce are mostly junk, unlike honest pairs (>80% true).
	if agreedTotal > 0 {
		if frac := float64(agreedTrue) / float64(agreedTotal); frac > 0.6 {
			t.Errorf("spam label true fraction = %.2f; expected mostly junk", frac)
		}
	}

	// On a single image, every spam agreement promotes a head word to
	// taboo, so repeat spam gets throttled: agreements in the second half
	// of play must be rarer than in the first half.
	g2 := NewESP(c, DefaultESPConfig())
	const imgID, rounds = 11, 60
	firstHalf, secondHalf := 0, 0
	for r := 0; r < rounds; r++ {
		res := g2.PlayRound(s1, s2, imgID)
		if res.Agreed {
			if r < rounds/2 {
				firstHalf++
			} else {
				secondHalf++
			}
		}
	}
	if secondHalf >= firstHalf && firstHalf > 0 {
		t.Errorf("taboo did not throttle spam: %d agreements early, %d late", firstHalf, secondHalf)
	}
}

// TestESPConfigPanics: of the rules ESPConfig still carries, a word must
// agree at least once before it turns taboo.
func TestESPConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PromoteAfter 0 did not panic")
		}
	}()
	NewESP(espCorpus(t), ESPConfig{Mode: agree.Exact, PromoteAfter: 0})
}

// BenchmarkESPPlayRound plays espBenchRounds rounds on each fresh game: a
// game's taboo lists grow with every round it plays, so one game played
// b.N rounds would cost more per round the longer the benchmark ran. An
// op is one game; ns/round is the figure to compare. The loop counts b.N,
// not b.Loop: under Go 1.24, b.Loop measures its time budget from the last
// StartTimer, so a loop that stops the timer for each game never ends.
func BenchmarkESPPlayRound(b *testing.B) {
	const espBenchRounds = 5000
	c := espCorpus(b)
	wa, wb := espPair(b, 10)
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		g := NewESP(c, DefaultESPConfig())
		b.StartTimer()
		for i := range espBenchRounds {
			g.PlayRound(wa, wb, i%len(c.Images))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*espBenchRounds), "ns/round")
}

// TestESPLabelsMakeImagesFindable is the closing-the-loop integration test:
// labels collected by simulated ESP play must put the right image at or
// near the top when queried with its own ground-truth tags.
func TestESPLabelsMakeImagesFindable(t *testing.T) {
	corpus := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   150,
		MeanObjects: 4,
		CanvasW:     640, CanvasH: 480,
		Seed: 2,
	})
	cfg := DefaultESPConfig()
	cfg.PromoteAfter = 1 << 30
	cfg.RetireAt = 0
	g := NewESP(corpus, cfg)
	src := rng.New(3)
	popCfg := worker.DefaultPopulationConfig(2)
	for img := 0; img < len(corpus.Images); img++ {
		for r := 0; r < 8; r++ {
			pa := worker.SampleProfile(popCfg, src)
			pb := worker.SampleProfile(popCfg, src)
			pa.ThinkMean, pb.ThinkMean = 0, 0
			a := worker.New("a", worker.Honest, pa, src)
			b := worker.New("b", worker.Honest, pb, src)
			g.PlayRound(a, b, img)
		}
	}

	ix := search.NewIndex()
	labeled := 0
	for img := 0; img < len(corpus.Images); img++ {
		labels := g.Labels.LabelsFor(img)
		for _, l := range labels {
			ix.Add(img, l.Word, l.Count)
		}
		if len(labels) > 0 {
			labeled++
		}
	}
	if labeled < 100 {
		t.Fatalf("only %d images got labels", labeled)
	}

	top5 := 0
	queries := 0
	for img := 0; img < len(corpus.Images); img++ {
		objs := corpus.Image(img).Objects
		query := make([]int, 0, len(objs))
		for _, o := range objs {
			query = append(query, corpus.Lexicon.Canonical(o.Tag))
		}
		queries++
		if r := ix.Rank(query, img); r >= 1 && r <= 5 {
			top5++
		}
	}
	if frac := float64(top5) / float64(queries); frac < 0.5 {
		t.Errorf("only %.0f%% of images found in top-5 by their own tags", 100*frac)
	}
}
