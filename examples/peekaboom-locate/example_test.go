// Package peekaboomlocate locates objects in images with Peekaboom rounds,
// run as a testable example:
//
//	go test -v -run Example ./examples/peekaboom-locate
package peekaboomlocate

import (
	"fmt"
	"sort"
	"testing"

	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Boxes are fit from at least a dozen pings with 10% tails trimmed, as
// deployed.
const (
	// minPingsForBox is how many validated pings an object needs before
	// fitBox emits a bounding box for it.
	minPingsForBox = 12
	// boxTrim is the fraction trimmed from each coordinate tail when
	// fitting the box — the robustness knob that rejects stray clicks.
	boxTrim = 0.1
)

// fitBox fits the trimmed bounding box of an object's validated pings.
// ok is false below minPingsForBox pings.
func fitBox(ps []games.Ping) (vocab.Rect, bool) {
	if len(ps) < minPingsForBox {
		return vocab.Rect{}, false
	}
	xs := make([]int, len(ps))
	ys := make([]int, len(ps))
	for i, p := range ps {
		xs[i], ys[i] = p.X, p.Y
	}
	sort.Ints(xs)
	sort.Ints(ys)
	// A variable, so the scale below is float64 arithmetic, not a
	// constant expression folded exactly.
	trim := float64(boxTrim)
	lo := int(float64(len(ps)) * trim)
	hi := len(ps) - 1 - lo
	// The [trim, 1-trim] quantile range of uniformly distributed clicks
	// covers only (1-2·trim) of the object's extent; inflate the fitted
	// box around its center to undo that shrinkage (an unbiased width
	// estimate for in-box clicks, which stray clicks barely perturb after
	// trimming).
	scale := 1 / (1 - 2*trim)
	w := float64(xs[hi]-xs[lo]+1) * scale
	h := float64(ys[hi]-ys[lo]+1) * scale
	cx := float64(xs[hi]+xs[lo]+1) / 2
	cy := float64(ys[hi]+ys[lo]+1) / 2
	return vocab.Rect{X: int(cx - w/2), Y: int(cy - h/2), W: int(w + 0.5), H: int(h + 0.5)}, true
}

// Play Peekaboom rounds until each target object has enough validated
// pings for a box, then score the fitted boxes against ground truth with
// IoU — the figure of merit for object localization.
func Example() {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 100
	corpus := vocab.NewCorpus(corpusCfg)
	game := games.NewPeekaboom(corpus, 1)

	src := rng.New(21)
	popCfg := worker.DefaultPopulationConfig(2)

	// Target list: the first object of the first 40 images.
	type target struct{ img, word int }
	var targets []target
	for img := 0; img < 40; img++ {
		targets = append(targets, target{img, corpus.Image(img).Objects[0].Tag})
	}
	// The pings of each target's solved rounds: the game's output.
	pings := map[target][]games.Ping{}

	// Play rounds until every target has enough validated pings for a box.
	solved, rounds := 0, 0
	for _, tg := range targets {
		for len(pings[tg]) < minPingsForBox {
			pBoom := worker.SampleProfile(popCfg, src)
			pPeek := worker.SampleProfile(popCfg, src)
			pBoom.ThinkMean, pPeek.ThinkMean = 0, 0
			boom := worker.New("boom", worker.Honest, pBoom, src)
			peek := worker.New("peek", worker.Honest, pPeek, src)
			res := game.PlayRound(boom, peek, tg.img, tg.word)
			rounds++
			if res.Solved {
				solved++
				pings[tg] = append(pings[tg], res.Pings...)
			}
			if rounds > 20000 {
				break
			}
		}
	}
	fmt.Printf("played %d rounds, %d solved (%.1f%%)\n\n",
		rounds, solved, 100*float64(solved)/float64(rounds))

	var ious []float64
	for _, tg := range targets {
		box, ok := fitBox(pings[tg])
		if !ok {
			continue
		}
		truth, _ := corpus.TrueBox(tg.img, tg.word)
		ious = append(ious, box.IoU(truth))
	}
	if len(ious) == 0 {
		fmt.Println("no boxes fitted")
		return
	}
	sort.Float64s(ious)
	sum := 0.0
	over50 := 0
	for _, v := range ious {
		sum += v
		if v >= 0.5 {
			over50++
		}
	}
	fmt.Printf("aggregated boxes: %d\n", len(ious))
	fmt.Printf("  mean IoU vs ground truth: %.2f\n", sum/float64(len(ious)))
	fmt.Printf("  median IoU:               %.2f\n", ious[len(ious)/2])
	fmt.Printf("  IoU >= 0.5 (PASCAL hit):  %d/%d\n", over50, len(ious))

	// Output:
	// played 243 rounds, 242 solved (99.6%)
	//
	// aggregated boxes: 40
	//   mean IoU vs ground truth: 0.51
	//   median IoU:               0.55
	//   IoU >= 0.5 (PASCAL hit):  22/40
}

func TestBoxRequiresMinPings(t *testing.T) {
	var ps []games.Ping
	for i := 0; i < minPingsForBox-1; i++ {
		ps = append(ps, games.Ping{X: 10 + i, Y: 10 + i})
	}
	if _, ok := fitBox(ps); ok {
		t.Fatal("box emitted below minPingsForBox")
	}
	if _, ok := fitBox(append(ps, games.Ping{X: 30, Y: 30})); !ok {
		t.Fatal("box not emitted at minPingsForBox")
	}
}

func TestTrimRejectsOutliers(t *testing.T) {
	pings := make([]games.Ping, 0, 20)
	for i := 0; i < 18; i++ {
		pings = append(pings, games.Ping{X: 100 + i, Y: 200 + i})
	}
	// Two wild outliers (a cheater's random clicks).
	pings = append(pings, games.Ping{X: 600, Y: 5}, games.Ping{X: 2, Y: 470})
	box, ok := fitBox(pings)
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

func TestAggregatedBoxOverlapsTruth(t *testing.T) {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 10
	corpus := vocab.NewCorpus(corpusCfg)
	game := games.NewPeekaboom(corpus, 1)
	src := rng.New(4)
	p := worker.Profile{Accuracy: 0.95}
	boom, peek := worker.New("a", worker.Honest, p, src), worker.New("b", worker.Honest, p, src)

	// Hammer one object until its solved rounds carry enough pings for a box.
	img := 0
	word := corpus.Image(img).Objects[0].Tag
	var pings []games.Ping
	for i := 0; i < 200 && len(pings) < minPingsForBox; i++ {
		if res := game.PlayRound(boom, peek, img, word); res.Solved {
			pings = append(pings, res.Pings...)
		}
	}
	box, ok := fitBox(pings)
	if !ok {
		t.Fatalf("no box after %d pings", len(pings))
	}
	truth, _ := corpus.TrueBox(img, word)
	if iou := box.IoU(truth); iou < 0.3 {
		t.Errorf("aggregated box IoU = %.2f, want > 0.3 (box %+v truth %+v)", iou, box, truth)
	}
}
