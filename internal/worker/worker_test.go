package worker

import (
	"math"
	"testing"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

func testCorpus() *vocab.Corpus {
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 400, ZipfS: 1, SynonymRate: 0.25, Seed: 1},
		NumImages:   200,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
}

func honest(accuracy float64) *Worker {
	return New("h", Honest, Profile{
		Accuracy:    accuracy,
		SynonymRate: 0.15,
		TypoRate:    0.03,
		ThinkMean:   5 * time.Second,
		SessionMu:   2.8, SessionSigma: 0.9,
		ReturnProb: 0.5,
	}, rng.New(7))
}

func TestHonestGuessesAreMostlyTrueTags(t *testing.T) {
	c := testCorpus()
	w := honest(0.9)
	good, total := 0, 0
	for imgID := 0; imgID < 100; imgID++ {
		said := map[int]bool{}
		for g := 0; g < 5; g++ {
			tag := w.GuessTag(c.Lexicon, c.Image(imgID), nil, said)
			if tag < 0 {
				break
			}
			said[c.Lexicon.Canonical(tag)] = true
			total++
			if c.IsTrueTag(imgID, tag) {
				good++
			}
		}
	}
	if total == 0 {
		t.Fatal("no guesses produced")
	}
	// With accuracy 0.9 and ~4 objects per image the early guesses are
	// mostly true; later guesses exhaust the objects. Expect well over half.
	if frac := float64(good) / float64(total); frac < 0.55 {
		t.Errorf("true-tag fraction = %.2f, want > 0.55 (%d/%d)", frac, good, total)
	}
}

func TestGuessTagRespectsTabooAndSaid(t *testing.T) {
	c := testCorpus()
	w := honest(0.95)
	for imgID := 0; imgID < 50; imgID++ {
		img := c.Image(imgID)
		taboo := map[int]bool{}
		for _, o := range img.Objects {
			taboo[c.Lexicon.Canonical(o.Tag)] = true
		}
		said := map[int]bool{}
		for g := 0; g < 10; g++ {
			tag := w.GuessTag(c.Lexicon, img, taboo, said)
			if tag < 0 {
				break
			}
			can := c.Lexicon.Canonical(tag)
			if taboo[can] {
				t.Fatalf("honest worker said taboo word %d", tag)
			}
			if said[can] {
				t.Fatalf("honest worker repeated concept %d", can)
			}
			said[can] = true
		}
	}
}

func TestSpammerIgnoresImage(t *testing.T) {
	c := testCorpus()
	w := New("s", Spammer, Profile{Accuracy: 0.9}, rng.New(3))
	good, total := 0, 0
	for imgID := 0; imgID < 100; imgID++ {
		tag := w.GuessTag(c.Lexicon, c.Image(imgID), nil, map[int]bool{})
		total++
		if c.IsTrueTag(imgID, tag) {
			good++
		}
	}
	// Spam hits a true tag only by luck; with 400 words and ~4 objects the
	// Zipf head inflates this somewhat, but it must stay well under honest.
	if frac := float64(good) / float64(total); frac > 0.4 {
		t.Errorf("spammer true-tag fraction = %.2f, suspiciously high", frac)
	}
}

func TestColluderLeadsWithScript(t *testing.T) {
	c := testCorpus()
	w := New("c", Colluder, Profile{}, rng.New(4))
	w.ColludeWord = 123
	tag := w.GuessTag(c.Lexicon, c.Image(0), nil, map[int]bool{})
	if tag != 123 {
		t.Fatalf("colluder first guess = %d, want scripted 123", tag)
	}
	said := map[int]bool{c.Lexicon.Canonical(123): true}
	if w.GuessTag(c.Lexicon, c.Image(0), nil, said) == 123 {
		t.Error("colluder repeated script after it was said")
	}
}

func TestPingAccuracy(t *testing.T) {
	c := testCorpus()
	w := honest(0.95)
	inBox, total := 0, 0
	for imgID := 0; imgID < 100; imgID++ {
		img := c.Image(imgID)
		word := img.Objects[0].Tag
		box := img.Objects[0].Box
		for k := 0; k < 10; k++ {
			x, y := w.Ping(c, imgID, word)
			if x < 0 || y < 0 || x >= img.Width || y >= img.Height {
				t.Fatalf("ping (%d,%d) off canvas", x, y)
			}
			total++
			if x >= box.X && x < box.X+box.W && y >= box.Y && y < box.Y+box.H {
				inBox++
			}
		}
	}
	if frac := float64(inBox) / float64(total); frac < 0.85 {
		t.Errorf("in-box ping fraction = %.2f, want ~accuracy", frac)
	}
}

func TestPingOnUnknownWordStillOnCanvas(t *testing.T) {
	c := testCorpus()
	w := honest(0.95)
	img := c.Image(0)
	// A word that is not in the image: worker must click somewhere anyway.
	missing := -1
	for word := 0; word < c.Lexicon.Size(); word++ {
		if !c.IsTrueTag(0, word) {
			missing = word
			break
		}
	}
	x, y := w.Ping(c, 0, missing)
	if x < 0 || y < 0 || x >= img.Width || y >= img.Height {
		t.Fatalf("ping (%d,%d) off canvas", x, y)
	}
}

func TestDescribeFactAccuracy(t *testing.T) {
	fb := vocab.NewFactBase(vocab.FactBaseConfig{
		Lexicon:      vocab.LexiconConfig{Size: 400, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		FactsPerWord: 5,
		Seed:         9,
	})
	w := honest(0.9)
	trueFacts, total := 0, 0
	for subj := 0; subj < 200; subj++ {
		given := map[vocab.Fact]bool{}
		for k := 0; k < 3; k++ {
			f := w.DescribeFact(fb, subj, given)
			given[f] = true
			total++
			if fb.IsTrue(f) {
				trueFacts++
			}
		}
	}
	if frac := float64(trueFacts) / float64(total); frac < 0.7 {
		t.Errorf("true-fact fraction = %.2f, want >= ~accuracy-ish", frac)
	}
}

func TestDescribeFactAvoidsRepeats(t *testing.T) {
	fb := vocab.NewFactBase(vocab.FactBaseConfig{
		Lexicon:      vocab.LexiconConfig{Size: 100, ZipfS: 1, Seed: 1},
		FactsPerWord: 3,
		Seed:         10,
	})
	w := honest(1.0) // always tries true facts
	given := map[vocab.Fact]bool{}
	n := len(fb.Facts(5))
	for k := 0; k < n; k++ {
		f := w.DescribeFact(fb, 5, given)
		if given[f] {
			t.Fatalf("repeated fact %+v while fresh true facts remained", f)
		}
		given[f] = true
	}
}

func TestTranscribeDifficultyCurve(t *testing.T) {
	w := honest(0.92)
	correctAt := func(diff float64) float64 {
		correct := 0
		const n = 5000
		for i := 0; i < n; i++ {
			if w.Transcribe("bandemo", diff) == "bandemo" {
				correct++
			}
		}
		return float64(correct) / n
	}
	easy, hard := correctAt(0.0), correctAt(1.0)
	if easy <= hard {
		t.Errorf("accuracy easy %.2f <= hard %.2f", easy, hard)
	}
	if easy < 0.8 {
		t.Errorf("easy accuracy %.2f too low", easy)
	}
}

func TestTranscribeCheaterIsWrong(t *testing.T) {
	w := New("s", Spammer, Profile{Accuracy: 0.99}, rng.New(5))
	correct := 0
	for i := 0; i < 1000; i++ {
		if w.Transcribe("bandemo", 0) == "bandemo" {
			correct++
		}
	}
	if correct > 100 {
		t.Errorf("cheater transcribed correctly %d/1000 times", correct)
	}
}

func TestCompareFollowsAesthetics(t *testing.T) {
	w := honest(0.9)
	a := &vocab.Image{Aesthetic: 0.2}
	b := &vocab.Image{Aesthetic: 0.9}
	bWins := 0
	for i := 0; i < 2000; i++ {
		if w.Compare(a, b) == 1 {
			bWins++
		}
	}
	if frac := float64(bWins) / 2000; frac < 0.9 {
		t.Errorf("high-aesthetic image preferred only %.2f of the time", frac)
	}
}

func TestJudgeAccuracy(t *testing.T) {
	w := honest(0.9)
	right := 0
	const n = 4000
	for i := 0; i < n; i++ {
		same := i%2 == 0
		got := w.Judge(same)
		if (got == 0) == same {
			right++
		}
	}
	if frac := float64(right) / n; frac < 0.85 {
		t.Errorf("judge accuracy = %.2f", frac)
	}
}

func TestSessionAndThinkDistributions(t *testing.T) {
	w := honest(0.9)
	for i := 0; i < 1000; i++ {
		if w.SessionLength() <= 0 {
			t.Fatal("non-positive session length")
		}
		if w.ThinkTime() < 0 {
			t.Fatal("negative think time")
		}
	}
	zero := New("z", Honest, Profile{}, rng.New(6))
	if zero.ThinkTime() != 0 {
		t.Error("zero ThinkMean should yield zero think time")
	}
}

func TestPopulationComposition(t *testing.T) {
	cfg := DefaultPopulationConfig(1000)
	cfg.ColluderFrac = 0.2
	cfg.ColludeWord = 42
	ws := NewPopulation(cfg)
	counts := map[Behavior]int{}
	for _, w := range ws {
		counts[w.Behavior]++
	}
	if counts[Colluder] != 200 || counts[Honest] != 800 {
		t.Fatalf("composition = %v", counts)
	}
	ids := map[string]bool{}
	for _, w := range ws {
		if ids[w.ID] {
			t.Fatalf("duplicate worker ID %s", w.ID)
		}
		ids[w.ID] = true
		if w.Profile.Accuracy < 0.5 || w.Profile.Accuracy > 0.99 {
			t.Fatalf("accuracy %v outside clamp", w.Profile.Accuracy)
		}
		if w.Behavior == Colluder && w.ColludeWord != 42 {
			t.Fatal("colluder missing script word")
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := NewPopulation(DefaultPopulationConfig(100))
	b := NewPopulation(DefaultPopulationConfig(100))
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Profile != b[i].Profile || a[i].Behavior != b[i].Behavior {
			t.Fatalf("populations diverge at %d", i)
		}
	}
}

func TestPopulationPanics(t *testing.T) {
	for name, cfg := range map[string]PopulationConfig{
		"size 0":        {Size: 0},
		"fraction > 1":  {Size: 10, ColluderFrac: 1.2},
		"negative frac": {Size: 10, ColluderFrac: -0.1},
		"NaN frac":      {Size: 10, ColluderFrac: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			NewPopulation(cfg)
		}()
	}
}

func TestBehaviorString(t *testing.T) {
	if Honest.String() != "honest" || Spammer.String() != "spammer" || Colluder.String() != "colluder" {
		t.Error("behavior strings wrong")
	}
	if Behavior(9).String() == "" {
		t.Error("unknown behavior should stringify")
	}
}

func TestMachineGuessesCanonicalTrueTags(t *testing.T) {
	c := testCorpus()
	m := New("m", Machine, Profile{Accuracy: 0.8}, rng.New(21))
	good, total := 0, 0
	for imgID := 0; imgID < 100; imgID++ {
		said := map[int]bool{}
		for g := 0; g < 3; g++ {
			tag := m.GuessTag(c.Lexicon, c.Image(imgID), nil, said)
			if tag < 0 {
				break
			}
			// Classifiers emit canonical class names only.
			if c.Lexicon.Canonical(tag) != tag {
				t.Fatalf("machine emitted non-canonical word %d", tag)
			}
			said[tag] = true
			total++
			if c.IsTrueTag(imgID, tag) {
				good++
			}
		}
	}
	if total == 0 {
		t.Fatal("machine produced no guesses")
	}
	frac := float64(good) / float64(total)
	if frac < 0.45 {
		t.Errorf("machine true-tag fraction = %.2f with accuracy 0.8", frac)
	}
	// A weak classifier must be visibly worse.
	weak := New("w", Machine, Profile{Accuracy: 0.2}, rng.New(22))
	weakGood, weakTotal := 0, 0
	for imgID := 0; imgID < 100; imgID++ {
		tag := weak.GuessTag(c.Lexicon, c.Image(imgID), nil, map[int]bool{})
		if tag < 0 {
			continue
		}
		weakTotal++
		if c.IsTrueTag(imgID, tag) {
			weakGood++
		}
	}
	if weakTotal > 0 && float64(weakGood)/float64(weakTotal) >= frac {
		t.Error("weak classifier not worse than strong one")
	}
}

func TestMachineRespectsTaboo(t *testing.T) {
	c := testCorpus()
	m := New("m", Machine, Profile{Accuracy: 0.9}, rng.New(23))
	img := c.Image(0)
	taboo := map[int]bool{}
	for _, o := range img.Objects {
		taboo[c.Lexicon.Canonical(o.Tag)] = true
	}
	for g := 0; g < 20; g++ {
		tag := m.GuessTag(c.Lexicon, img, taboo, map[int]bool{})
		if tag >= 0 && taboo[c.Lexicon.Canonical(tag)] {
			t.Fatal("machine emitted taboo word")
		}
	}
}
