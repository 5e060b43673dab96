// Package imagesearch is the full human-computation ecosystem loop, run
// as a testable example:
//
//	go test -v -run Example ./examples/image-search
package imagesearch

import (
	"fmt"
	"time"

	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/search"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// An ESP crowd labels the corpus; the labels build a search index (the
// game's purpose); the index is evaluated as a retrieval system; and
// finally Phetch players use it to validate accessibility captions — one
// game's output becoming the next game's substrate.
func Example() {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 600
	corpus := vocab.NewCorpus(corpusCfg)

	// Stage 1: an ESP crowd labels the corpus.
	espCfg := games.DefaultESPConfig()
	espCfg.PromoteAfter = 2 // let labels accumulate a little weight
	espCfg.RetireAt = 0
	espCfg.ReplaySeed = 5
	game := games.NewESP(corpus, espCfg)
	players := worker.NewPopulation(worker.DefaultPopulationConfig(300))
	crowdCfg := sim.DefaultCrowdConfig(players, game)
	crowdCfg.Horizon = 10 * time.Hour
	rep := sim.NewCrowd(crowdCfg, time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)).Run()
	fmt.Printf("stage 1 — ESP crowd: %d labels across %d images (%.1f labels/human-hour)\n",
		rep.Outputs, game.Labels.Items(), rep.ThroughputPerHour)

	// Stage 2: the labels become a search index.
	ix := search.NewIndex()
	indexed, terms := 0, map[int]bool{}
	for img := range corpus.Images {
		labels := game.Labels.LabelsFor(img)
		for _, l := range labels {
			ix.Add(img, l.Word, l.Count)
			terms[l.Word] = true
		}
		if len(labels) > 0 {
			indexed++
		}
	}
	fmt.Printf("stage 2 — index: %d images, %d terms\n", indexed, len(terms))

	// Stage 3: retrieval evaluation — query each image with its own
	// ground-truth tags; a good label set finds the image.
	top1, top5, queries := 0, 0, 0
	for img := range corpus.Images {
		var query []int
		for _, o := range corpus.Image(img).Objects {
			query = append(query, corpus.Lexicon.Canonical(o.Tag))
		}
		queries++
		switch r := ix.Rank(query, img); {
		case r == 1:
			top1++
			top5++
		case r >= 2 && r <= 5:
			top5++
		}
	}
	fmt.Printf("stage 3 — retrieval: top-1 %.1f%%, top-5 %.1f%% of %d queries\n",
		100*float64(top1)/float64(queries), 100*float64(top5)/float64(queries), queries)

	// Stage 4: Phetch rides the index to validate captions.
	ph := games.NewPhetch(corpus, ix, 1)
	src := rng.New(9)
	p := worker.SampleProfile(worker.DefaultPopulationConfig(4), src)
	p.ThinkMean = 0
	describer := worker.New("describer", worker.Honest, p, src)
	seekers := []*worker.Worker{
		worker.New("seek1", worker.Honest, p, src),
		worker.New("seek2", worker.Honest, p, src),
	}
	solved, captioned := 0, map[int]bool{}
	const rounds = 500
	for i := 0; i < rounds; i++ {
		if res := ph.PlayRound(describer, seekers, ph.PickImage()); res.Solved {
			solved++
			captioned[res.ImageID] = true
		}
	}
	fmt.Printf("stage 4 — Phetch on the label index: %d/%d rounds validated a caption (%d images captioned)\n",
		solved, rounds, len(captioned))

	// Show one search, end to end.
	img := corpus.Image(0)
	query := []int{corpus.Lexicon.Canonical(img.Objects[0].Tag)}
	fmt.Printf("\nquery %q →", corpus.Lexicon.Word(query[0]).Text)
	for _, hit := range ix.Search(query, 5) {
		marker := " "
		if hit.Item == 0 {
			marker = "*"
		}
		fmt.Printf(" %simg%d(%.3f)", marker, hit.Item, hit.Score)
	}
	fmt.Println()

	// Output:
	// stage 1 — ESP crowd: 12935 labels across 600 images (67.5 labels/human-hour)
	// stage 2 — index: 600 images, 723 terms
	// stage 3 — retrieval: top-1 87.3%, top-5 93.5% of 600 queries
	// stage 4 — Phetch on the label index: 445/500 rounds validated a caption (314 images captioned)
	//
	// query "zada" → *img0(0.462)  img322(0.420)  img9(0.385)  img150(0.243)  img529(0.210)
}
