package ocr

import (
	"testing"

	"humancomp/internal/vocab"
)

func lex(tb testing.TB) *vocab.Lexicon {
	tb.Helper()
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, Seed: 1})
}

func TestCleanScansReadWell(t *testing.T) {
	e := NewEngine("A", 0.99, 0.6, 1)
	right, total := 0, 2000
	for i := 0; i < total; i++ {
		got, conf := e.Read("bandemo", 0)
		if got == "bandemo" {
			right++
		}
		if conf < 0 || conf > 1 {
			t.Fatalf("confidence %v out of range", conf)
		}
	}
	// 0.99^7 ≈ 0.93 word accuracy on clean scans.
	if frac := float64(right) / float64(total); frac < 0.88 {
		t.Errorf("clean word accuracy = %.2f", frac)
	}
}

func TestDegradationHurts(t *testing.T) {
	e := NewEngine("A", 0.99, 0.6, 2)
	acc := func(deg float64) float64 {
		right := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if got, _ := e.Read("bandemo", deg); got == "bandemo" {
				right++
			}
		}
		return float64(right) / n
	}
	clean, dirty := acc(0), acc(0.9)
	if clean <= dirty {
		t.Errorf("accuracy clean %.2f <= dirty %.2f", clean, dirty)
	}
	if dirty > 0.3 {
		t.Errorf("badly degraded accuracy %.2f suspiciously high", dirty)
	}
}

func TestConfidenceTracksCorrectness(t *testing.T) {
	e := NewEngine("A", 0.97, 0.6, 3)
	var confRight, confWrong float64
	var nRight, nWrong int
	for i := 0; i < 5000; i++ {
		got, conf := e.Read("bandemo", 0.5)
		if got == "bandemo" {
			confRight += conf
			nRight++
		} else {
			confWrong += conf
			nWrong++
		}
	}
	if nRight == 0 || nWrong == 0 {
		t.Skip("degenerate accuracy split")
	}
	if confRight/float64(nRight) <= confWrong/float64(nWrong) {
		t.Error("confidence not higher on correct reads")
	}
}

func TestDegradationClamped(t *testing.T) {
	e := NewEngine("A", 0.99, 0.6, 4)
	if got, _ := e.Read("ba", -5); len(got) == 0 && got != "" {
		t.Fatal("unexpected")
	}
	// Degradation 5 is clamped to 1; per-char accuracy floors at 0.05 so
	// output is still produced.
	got, _ := e.Read("bandemo", 5)
	_ = got
}

func TestEnginesErrorsDecorrelatedGivenWord(t *testing.T) {
	// Two engines share the degradation (correlated difficulty) but make
	// independent character choices: they should disagree on a decent
	// fraction of misread words rather than producing identical garbage.
	a := NewEngine("A", 0.97, 0.7, 5)
	b := NewEngine("B", 0.95, 0.6, 6)
	bothWrongSame, bothWrong := 0, 0
	for i := 0; i < 5000; i++ {
		ga, _ := a.Read("bandemo", 0.8)
		gb, _ := b.Read("bandemo", 0.8)
		if ga != "bandemo" && gb != "bandemo" {
			bothWrong++
			if ga == gb {
				bothWrongSame++
			}
		}
	}
	if bothWrong == 0 {
		t.Skip("no joint errors")
	}
	if frac := float64(bothWrongSame) / float64(bothWrong); frac > 0.5 {
		t.Errorf("engines agree on %.2f of joint errors; too correlated", frac)
	}
}

func TestNewEnginePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"base 0":  func() { NewEngine("A", 0, 0.5, 1) },
		"base 2":  func() { NewEngine("A", 2, 0.5, 1) },
		"sens -1": func() { NewEngine("A", 0.9, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSyntheticDocument(t *testing.T) {
	l := lex(t)
	doc := SyntheticDocument(l, DocumentConfig{NumWords: 500, DegMean: 0.5, DegSD: 0.2, Seed: 7})
	if len(doc.Words) != 500 {
		t.Fatalf("words = %d", len(doc.Words))
	}
	texts := map[string]bool{}
	for i := 0; i < l.Size(); i++ {
		texts[l.Word(i).Text] = true
	}
	for _, w := range doc.Words {
		if w.Text == "" {
			t.Fatal("empty word")
		}
		if w.Degradation < 0 || w.Degradation > 1 {
			t.Fatalf("degradation %v out of range", w.Degradation)
		}
		if !texts[w.Text] {
			t.Fatalf("word %q not from lexicon", w.Text)
		}
	}
	// Deterministic.
	doc2 := SyntheticDocument(l, DocumentConfig{NumWords: 500, DegMean: 0.5, DegSD: 0.2, Seed: 7})
	for i := range doc.Words {
		if doc.Words[i] != doc2.Words[i] {
			t.Fatal("documents diverge")
		}
	}
}

func TestSyntheticDocumentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NumWords 0 did not panic")
		}
	}()
	SyntheticDocument(lex(t), DocumentConfig{NumWords: 0})
}

func TestWordAccuracy(t *testing.T) {
	if got := WordAccuracy([]string{"a", "b", "c"}, []string{"a", "x", "c"}); got < 0.66 || got > 0.67 {
		t.Fatalf("accuracy = %v", got)
	}
	if WordAccuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slices did not panic")
		}
	}()
	WordAccuracy([]string{"a"}, nil)
}

func BenchmarkRead(b *testing.B) {
	e := NewEngine("A", 0.97, 0.6, 8)
	for b.Loop() {
		e.Read("bandemo", 0.5)
	}
}
