package squigl

import (
	"sort"
	"testing"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func corpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   150,
		MeanObjects: 3,
		CanvasW:     640, CanvasH: 480,
		Seed: 2,
	})
}

func tracers(tb testing.TB, seed uint64, accuracy float64) (*worker.Worker, *worker.Worker) {
	tb.Helper()
	src := rng.New(seed)
	p := worker.Profile{Accuracy: accuracy}
	return worker.New("a", worker.Honest, p, src), worker.New("b", worker.Honest, p, src)
}

func TestHonestPairsAgreeOften(t *testing.T) {
	c := corpus(t)
	g := New(c, DefaultConfig())
	a, b := tracers(t, 3, 0.92)
	agreed, rounds := 0, 400
	for i := 0; i < rounds; i++ {
		img, word := g.PickTask()
		res := g.PlayRound(a, b, img, word)
		if res.IoU < 0 || res.IoU > 1 {
			t.Fatalf("IoU = %v", res.IoU)
		}
		if res.Agreed {
			agreed++
			if res.Trace.Area() == 0 {
				t.Fatal("agreed round stored empty trace")
			}
		}
	}
	if frac := float64(agreed) / float64(rounds); frac < 0.5 {
		t.Errorf("agreement rate = %.2f with skilled tracers", frac)
	}
}

func TestOutlineMatchesTruth(t *testing.T) {
	c := corpus(t)
	g := New(c, DefaultConfig())
	a, b := tracers(t, 4, 0.95)
	img := 0
	word := c.Image(img).Objects[0].Tag
	for i := 0; i < 60 && g.Traces.Count(img, word) < DefaultConfig().MinTracesForOutline; i++ {
		g.PlayRound(a, b, img, word)
	}
	outline, ok := g.Traces.Outline(img, word)
	if !ok {
		t.Fatalf("no outline after %d traces", g.Traces.Count(img, word))
	}
	truth, _ := c.TrueBox(img, word)
	if iou := outline.IoU(truth); iou < 0.6 {
		t.Errorf("outline IoU = %.2f (outline %+v truth %+v)", iou, outline, truth)
	}
}

func TestSquiglTighterThanSinglePair(t *testing.T) {
	// The median over several agreed traces must not be worse than an
	// average single trace — the whole point of aggregation.
	c := corpus(t)
	g := New(c, DefaultConfig())
	a, b := tracers(t, 5, 0.85)
	var singleIoU float64
	singles := 0
	for imgID := 0; imgID < 80; imgID++ {
		word := c.Image(imgID).Objects[0].Tag
		for i := 0; i < 30 && g.Traces.Count(imgID, word) < 5; i++ {
			res := g.PlayRound(a, b, imgID, word)
			if res.Agreed {
				truth, _ := c.TrueBox(imgID, word)
				singleIoU += res.Trace.IoU(truth)
				singles++
			}
		}
	}
	if singles == 0 {
		t.Fatal("no agreed traces")
	}
	singleIoU /= float64(singles)

	var aggIoU float64
	outlines := 0
	for imgID := 0; imgID < 80; imgID++ {
		word := c.Image(imgID).Objects[0].Tag
		if outline, ok := g.Traces.Outline(imgID, word); ok {
			truth, _ := c.TrueBox(imgID, word)
			aggIoU += outline.IoU(truth)
			outlines++
		}
	}
	if outlines == 0 {
		t.Fatal("no outlines fitted")
	}
	aggIoU /= float64(outlines)
	if aggIoU < singleIoU-0.02 {
		t.Errorf("aggregated IoU %.3f below single-trace IoU %.3f", aggIoU, singleIoU)
	}
}

func TestCheatersRarelyAgree(t *testing.T) {
	c := corpus(t)
	g := New(c, DefaultConfig())
	src := rng.New(6)
	s1 := worker.New("s1", worker.Spammer, worker.Profile{}, src)
	s2 := worker.New("s2", worker.Spammer, worker.Profile{}, src)
	agreed := 0
	for i := 0; i < 300; i++ {
		img, word := g.PickTask()
		if g.PlayRound(s1, s2, img, word).Agreed {
			agreed++
		}
	}
	// Two random rectangles on a 640×480 canvas almost never reach 0.5 IoU.
	if agreed > 15 {
		t.Errorf("random tracers agreed %d/300 times", agreed)
	}
}

func TestOutlineRequiresMinTraces(t *testing.T) {
	s := NewTraceStore(3)
	s.Record(1, 2, vocab.Rect{X: 0, Y: 0, W: 10, H: 10})
	s.Record(1, 2, vocab.Rect{X: 1, Y: 1, W: 10, H: 10})
	if _, ok := s.Outline(1, 2); ok {
		t.Fatal("outline emitted below minimum")
	}
	s.Record(1, 2, vocab.Rect{X: 2, Y: 2, W: 10, H: 10})
	out, ok := s.Outline(1, 2)
	if !ok {
		t.Fatal("outline missing at minimum")
	}
	if out.X != 1 || out.Y != 1 {
		t.Errorf("median outline = %+v", out)
	}
	if s.Objects() != 1 {
		t.Errorf("Objects = %d", s.Objects())
	}
}

func TestNewPanics(t *testing.T) {
	c := corpus(t)
	for name, cfg := range map[string]Config{
		"iou 0":    {AgreeIoU: 0, MinTracesForOutline: 1},
		"iou 2":    {AgreeIoU: 2, MinTracesForOutline: 1},
		"traces 0": {AgreeIoU: 0.5, MinTracesForOutline: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(c, cfg)
		}()
	}
}

func BenchmarkPlayRound(b *testing.B) {
	c := corpus(b)
	g := New(c, DefaultConfig())
	wa, wb := tracers(b, 7, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, word := g.PickTask()
		g.PlayRound(wa, wb, img, word)
	}
}

// Outline returns the median-corner outline, or ok == false below the
// trace minimum.
func (s *TraceStore) Outline(image, word int) (vocab.Rect, bool) {
	list := s.traces[key{image, word}]
	if len(list) < s.minTraces {
		return vocab.Rect{}, false
	}
	n := len(list)
	x1s := make([]int, n)
	y1s := make([]int, n)
	x2s := make([]int, n)
	y2s := make([]int, n)
	for i, r := range list {
		x1s[i], y1s[i] = r.X, r.Y
		x2s[i], y2s[i] = r.X+r.W, r.Y+r.H
	}
	med := func(v []int) int {
		sort.Ints(v)
		return v[len(v)/2]
	}
	x1, y1, x2, y2 := med(x1s), med(y1s), med(x2s), med(y2s)
	return vocab.Rect{X: x1, Y: y1, W: max(x2-x1, 1), H: max(y2-y1, 1)}, true
}
