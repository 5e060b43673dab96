// peekaboom-locate: locate objects in images with Peekaboom rounds, then
// score the aggregated bounding boxes against ground truth with IoU — the
// figure-of-merit for object localization.
//
//	go run ./examples/peekaboom-locate
package main

import (
	"fmt"
	"sort"

	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
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
	hasBox := func(tg target) bool {
		_, ok := game.Boxes.Box(tg.img, tg.word)
		return ok
	}

	// Play rounds until every target has enough validated pings for a box.
	solved, rounds := 0, 0
	for _, tg := range targets {
		for !hasBox(tg) {
			pBoom := worker.SampleProfile(popCfg, src)
			pPeek := worker.SampleProfile(popCfg, src)
			pBoom.ThinkMean, pPeek.ThinkMean = 0, 0
			boom := worker.New("boom", worker.Honest, pBoom, src)
			peek := worker.New("peek", worker.Honest, pPeek, src)
			res := game.PlayRound(boom, peek, tg.img, tg.word)
			rounds++
			if res.Solved {
				solved++
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
		box, ok := game.Boxes.Box(tg.img, tg.word)
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
}
