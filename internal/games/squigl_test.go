package games

import (
	"sort"
	"testing"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func squiglCorpus(tb testing.TB) *vocab.Corpus {
	tb.Helper()
	return vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   150,
		MeanObjects: 3,
		CanvasW:     640, CanvasH: 480,
		Seed: 2,
	})
}

func TestHonestPairsAgreeOften(t *testing.T) {
	c := squiglCorpus(t)
	g := NewSquigl(c, 1)
	a, b := players(t, 3, 0.92)
	agreed, rounds := 0, 400
	for i := 0; i < rounds; i++ {
		img, word := pickObject(g.src, g.Corpus)
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
	c := squiglCorpus(t)
	g := NewSquigl(c, 1)
	a, b := players(t, 4, 0.95)
	img := 0
	word := c.Image(img).Objects[0].Tag
	var traces []vocab.Rect
	for i := 0; i < 60 && len(traces) < minTracesForOutline; i++ {
		if res := g.PlayRound(a, b, img, word); res.Agreed {
			traces = append(traces, res.Trace)
		}
	}
	out, ok := outline(traces)
	if !ok {
		t.Fatalf("no outline after %d traces", len(traces))
	}
	truth, _ := c.TrueBox(img, word)
	if iou := out.IoU(truth); iou < 0.6 {
		t.Errorf("outline IoU = %.2f (outline %+v truth %+v)", iou, out, truth)
	}
}

func TestSquiglTighterThanSinglePair(t *testing.T) {
	// The median over several agreed traces must not be worse than an
	// average single trace — the whole point of aggregation.
	c := squiglCorpus(t)
	g := NewSquigl(c, 1)
	a, b := players(t, 5, 0.85)
	var singleIoU float64
	singles := 0
	traces := make([][]vocab.Rect, 80)
	for imgID := range traces {
		word := c.Image(imgID).Objects[0].Tag
		for i := 0; i < 30 && len(traces[imgID]) < 5; i++ {
			res := g.PlayRound(a, b, imgID, word)
			if res.Agreed {
				traces[imgID] = append(traces[imgID], res.Trace)
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
	for imgID, list := range traces {
		word := c.Image(imgID).Objects[0].Tag
		if out, ok := outline(list); ok {
			truth, _ := c.TrueBox(imgID, word)
			aggIoU += out.IoU(truth)
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
	c := squiglCorpus(t)
	g := NewSquigl(c, 1)
	src := rng.New(6)
	s1 := worker.New("s1", worker.Spammer, worker.Profile{}, src)
	s2 := worker.New("s2", worker.Spammer, worker.Profile{}, src)
	agreed := 0
	for i := 0; i < 300; i++ {
		img, word := pickObject(g.src, g.Corpus)
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
	traces := []vocab.Rect{{X: 0, Y: 0, W: 10, H: 10}, {X: 1, Y: 1, W: 10, H: 10}}
	if _, ok := outline(traces); ok {
		t.Fatal("outline emitted below minimum")
	}
	traces = append(traces, vocab.Rect{X: 2, Y: 2, W: 10, H: 10})
	out, ok := outline(traces)
	if !ok {
		t.Fatal("outline missing at minimum")
	}
	if out.X != 1 || out.Y != 1 {
		t.Errorf("median outline = %+v", out)
	}
}

func BenchmarkSquiglPlayRound(b *testing.B) {
	c := squiglCorpus(b)
	g := NewSquigl(c, 1)
	wa, wb := players(b, 7, 0.9)
	for b.Loop() {
		img, word := pickObject(g.src, g.Corpus)
		g.PlayRound(wa, wb, img, word)
	}
}

// minTracesForOutline is how many agreed traces an object needs before
// outline emits a final outline: three, as deployed.
const minTracesForOutline = 3

// outline fits an object's final outline from its agreed traces as the
// median of their corners, robust to the occasional agreed-but-sloppy
// pair; ok is false below minTracesForOutline traces.
func outline(list []vocab.Rect) (vocab.Rect, bool) {
	if len(list) < minTracesForOutline {
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
