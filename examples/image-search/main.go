// image-search: the full human-computation ecosystem loop. An ESP crowd
// labels the corpus; the labels build a search index (the game's purpose);
// the index is evaluated as a retrieval system; and finally Phetch players
// use it to validate accessibility captions — one game's output becoming
// the next game's substrate.
//
//	go run ./examples/image-search
package main

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

func main() {
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
	rep := sim.NewCrowd(crowdCfg, time.Now()).Run()
	fmt.Printf("stage 1 — ESP crowd: %d labels across %d images (%.1f labels/human-hour)\n",
		rep.Outputs, game.Labels.Items(), rep.ThroughputPerHour)

	// Stage 2: the labels become a search index.
	ix := search.NewIndex()
	for img := range corpus.Images {
		for _, l := range game.Labels.LabelsFor(img) {
			ix.Add(img, l.Word, l.Count)
		}
	}
	fmt.Printf("stage 2 — index: %d images, %d terms\n", ix.Items(), ix.Terms())

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
	solved := 0
	const rounds = 500
	for i := 0; i < rounds; i++ {
		if ph.PlayRound(describer, seekers, ph.PickImage()).Solved {
			solved++
		}
	}
	fmt.Printf("stage 4 — Phetch on the label index: %d/%d rounds validated a caption (%d images captioned)\n",
		solved, rounds, ph.Captions.Images())

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
}
