package vocab

import (
	"testing"
	"testing/quick"

	"humancomp/internal/rng"
)

func TestSyntheticWordsUnique(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < 50000; i++ {
		w := syntheticWord(i)
		if prev, dup := seen[w]; dup {
			t.Fatalf("syntheticWord(%d) == syntheticWord(%d) == %q", i, prev, w)
		}
		seen[w] = i
	}
}

func TestLexiconDeterministic(t *testing.T) {
	cfg := DefaultLexiconConfig()
	a, b := NewLexicon(cfg), NewLexicon(cfg)
	for i := 0; i < a.Size(); i++ {
		if a.Word(i) != b.Word(i) || a.Canonical(i) != b.Canonical(i) {
			t.Fatalf("lexicons diverge at word %d", i)
		}
	}
}

func TestLexiconLookupRoundTrip(t *testing.T) {
	lex := NewLexicon(LexiconConfig{Size: 500, ZipfS: 1, Seed: 9})
	// Each text names one word: IDs round-trip and no two words share text.
	seen := map[string]int{}
	for i := 0; i < lex.Size(); i++ {
		w := lex.Word(i)
		if j, dup := seen[w.Text]; dup || w.ID != i {
			t.Fatalf("Word(%d) = %+v; text also word %d: %v", i, w, j, dup)
		}
		seen[w.Text] = i
	}
}

func TestSynonymRelationIsEquivalence(t *testing.T) {
	lex := NewLexicon(LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.5, Seed: 4})
	for id := 0; id < lex.Size(); id++ {
		group := lex.Synonyms(id)
		found := false
		for _, m := range group {
			if m == id {
				found = true
			}
			if !lex.AreSynonyms(id, m) {
				t.Fatalf("group member %d not synonym of %d", m, id)
			}
			if lex.Canonical(m) != lex.Canonical(id) {
				t.Fatalf("canonical mismatch within group of %d", id)
			}
		}
		if !found {
			t.Fatalf("word %d missing from its own synonym group", id)
		}
	}
}

func TestSynonymRateZeroMeansSingletons(t *testing.T) {
	lex := NewLexicon(LexiconConfig{Size: 100, ZipfS: 1, SynonymRate: 0, Seed: 5})
	for id := 0; id < lex.Size(); id++ {
		if len(lex.Synonyms(id)) != 1 || lex.Canonical(id) != id {
			t.Fatalf("word %d should be its own singleton group", id)
		}
	}
}

func TestSampleZipfSkew(t *testing.T) {
	lex := NewLexicon(DefaultLexiconConfig())
	counts := make([]int, lex.Size())
	for i := 0; i < 100000; i++ {
		counts[lex.Sample()]++
	}
	if counts[0] <= counts[500] {
		t.Errorf("head word sampled %d times, mid word %d — expected Zipf skew", counts[0], counts[500])
	}
}

func TestSampleFromDoesNotPerturbLexicon(t *testing.T) {
	lexA := NewLexicon(DefaultLexiconConfig())
	lexB := NewLexicon(DefaultLexiconConfig())
	ext := rng.New(99)
	for i := 0; i < 100; i++ {
		lexA.SampleFrom(ext) // external draws must not touch internal stream
	}
	for i := 0; i < 100; i++ {
		if lexA.Sample() != lexB.Sample() {
			t.Fatal("SampleFrom perturbed the lexicon's own stream")
		}
	}
}

func TestMisspellProperties(t *testing.T) {
	src := rng.New(6)
	f := func(raw uint16) bool {
		w := syntheticWord(int(raw))
		m := Misspell(w, src)
		// A typo changes length by at most one character.
		d := len(m) - len(w)
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Misspell("a", src) != "a" {
		t.Error("single-char word should be unchanged")
	}
}

func TestRectGeometry(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	b := Rect{X: 5, Y: 5, W: 10, H: 10}
	if got := a.Intersect(b); got != (Rect{X: 5, Y: 5, W: 5, H: 5}) {
		t.Errorf("Intersect = %+v", got)
	}
	if iou := a.IoU(b); iou < 0.14 || iou > 0.15 { // 25 / 175
		t.Errorf("IoU = %v, want 25/175", iou)
	}
	if a.IoU(a) != 1 {
		t.Error("self IoU should be 1")
	}
	far := Rect{X: 100, Y: 100, W: 5, H: 5}
	if a.IoU(far) != 0 {
		t.Error("disjoint IoU should be 0")
	}
	if (Rect{W: -3, H: 5}).Area() != 0 {
		t.Error("degenerate rect area should be 0")
	}
}

func TestRectIoUSymmetric(t *testing.T) {
	src := rng.New(7)
	f := func() bool {
		a := Rect{X: src.Intn(50), Y: src.Intn(50), W: 1 + src.Intn(50), H: 1 + src.Intn(50)}
		b := Rect{X: src.Intn(50), Y: src.Intn(50), W: 1 + src.Intn(50), H: 1 + src.Intn(50)}
		iou := a.IoU(b)
		return iou == b.IoU(a) && iou >= 0 && iou <= 1
	}
	for i := 0; i < 500; i++ {
		if !f() {
			t.Fatal("IoU not symmetric or out of range")
		}
	}
}

func TestCorpusGroundTruth(t *testing.T) {
	c := NewCorpus(CorpusConfig{
		Lexicon:     LexiconConfig{Size: 200, ZipfS: 1, SynonymRate: 0.3, Seed: 1},
		NumImages:   100,
		MeanObjects: 3,
		CanvasW:     320,
		CanvasH:     240,
		Seed:        8,
	})
	for _, img := range c.Images {
		if len(img.Objects) == 0 {
			t.Fatalf("image %d has no objects", img.ID)
		}
		for _, o := range img.Objects {
			if o.Box.X < 0 || o.Box.Y < 0 ||
				o.Box.X+o.Box.W > img.Width || o.Box.Y+o.Box.H > img.Height {
				t.Fatalf("image %d object box %+v escapes canvas", img.ID, o.Box)
			}
			if !c.IsTrueTag(img.ID, o.Tag) {
				t.Fatalf("image %d: object tag not a true tag", img.ID)
			}
			// A synonym of the tag must also count as true.
			for _, syn := range c.Lexicon.Synonyms(o.Tag) {
				if !c.IsTrueTag(img.ID, syn) {
					t.Fatalf("image %d: synonym %d of tag %d rejected", img.ID, syn, o.Tag)
				}
			}
			box, ok := c.TrueBox(img.ID, o.Tag)
			if !ok || box != o.Box {
				t.Fatalf("image %d: TrueBox mismatch", img.ID)
			}
		}
		if img.Aesthetic < 0 || img.Aesthetic > 1 {
			t.Fatalf("image %d aesthetic %v out of range", img.ID, img.Aesthetic)
		}
	}
}

func TestCorpusNoDuplicateConceptsPerImage(t *testing.T) {
	c := NewCorpus(DefaultCorpusConfig())
	for _, img := range c.Images {
		seen := make(map[int]bool)
		for _, o := range img.Objects {
			can := c.Lexicon.Canonical(o.Tag)
			if seen[can] {
				t.Fatalf("image %d repeats concept %d", img.ID, can)
			}
			seen[can] = true
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.NumImages = 50
	a, b := NewCorpus(cfg), NewCorpus(cfg)
	for i := range a.Images {
		ai, bi := a.Images[i], b.Images[i]
		if ai.Aesthetic != bi.Aesthetic || len(ai.Objects) != len(bi.Objects) {
			t.Fatalf("corpora diverge at image %d", i)
		}
		for j := range ai.Objects {
			if ai.Objects[j] != bi.Objects[j] {
				t.Fatalf("corpora diverge at image %d object %d", i, j)
			}
		}
	}
}

func TestFactBaseTruth(t *testing.T) {
	fb := NewFactBase(FactBaseConfig{
		Lexicon:      LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.3, Seed: 1},
		FactsPerWord: 4,
		Seed:         11,
	})
	if len(fb.index) == 0 {
		t.Fatal("fact base is empty")
	}
	for subj := 0; subj < fb.Lexicon.Size(); subj++ {
		facts := fb.Facts(subj)
		if len(facts) < 2 {
			t.Fatalf("subject %d has %d facts, want >= 2", subj, len(facts))
		}
		for _, f := range facts {
			if f.Subject != subj {
				t.Fatalf("fact filed under wrong subject: %+v", f)
			}
			if f.Object == subj {
				t.Fatalf("self-referential fact: %+v", f)
			}
			if !fb.IsTrue(f) {
				t.Fatalf("stored fact not true: %+v", f)
			}
			// Synonym substitution on the object must be accepted.
			for _, syn := range fb.Lexicon.Synonyms(f.Object) {
				alt := Fact{Subject: f.Subject, Relation: f.Relation, Object: syn}
				if !fb.IsTrue(alt) {
					t.Fatalf("synonym-substituted fact rejected: %+v", alt)
				}
			}
		}
	}
}

func TestFactBaseRejectsRandomFacts(t *testing.T) {
	fb := NewFactBase(DefaultFactBaseConfig())
	src := rng.New(12)
	falsePositives := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		f := Fact{
			Subject:  src.Intn(fb.Lexicon.Size()),
			Relation: Relation(src.Intn(int(numRelations))),
			Object:   src.Intn(fb.Lexicon.Size()),
		}
		if fb.IsTrue(f) {
			falsePositives++
		}
	}
	// Random triples over a 2000-word lexicon are almost never true facts.
	if falsePositives > trials/20 {
		t.Errorf("%d/%d random facts judged true", falsePositives, trials)
	}
}

func TestRelationStrings(t *testing.T) {
	for _, r := range Relations() {
		if r.String() == "unknown relation" {
			t.Errorf("relation %d has no template string", r)
		}
	}
	if Relation(99).String() != "unknown relation" {
		t.Error("out-of-range relation should stringify as unknown")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewLexicon size 0", func() { NewLexicon(LexiconConfig{Size: 0}) })
	mustPanic("NewCorpus no images", func() {
		NewCorpus(CorpusConfig{Lexicon: LexiconConfig{Size: 10, Seed: 1}, NumImages: 0, CanvasW: 10, CanvasH: 10})
	})
	mustPanic("Word out of range", func() { NewLexicon(LexiconConfig{Size: 10, Seed: 1}).Word(10) })
	c := NewCorpus(CorpusConfig{Lexicon: LexiconConfig{Size: 10, Seed: 1}, NumImages: 1, MeanObjects: 1, CanvasW: 100, CanvasH: 100, Seed: 1})
	mustPanic("Image out of range", func() { c.Image(5) })
}
