// Package esplabeling is the full image-labeling pipeline, run as a
// testable example:
//
//	go test -v -run Example ./examples/esp-labeling
package esplabeling

import (
	"fmt"

	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// ESP rounds with taboo accumulation and image retirement, followed by
// an accuracy audit of the collected labels against ground truth at
// increasing agreement thresholds.
func Example() {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 400
	corpus := vocab.NewCorpus(corpusCfg)

	cfg := games.DefaultESPConfig()
	cfg.PromoteAfter = 3 // a word needs three agreements before going taboo
	cfg.RetireAt = 6     // an image with six taboo words is fully labeled
	game := games.NewESP(corpus, cfg)

	src := rng.New(42)
	popCfg := worker.DefaultPopulationConfig(2)

	rounds, agreed, retired := 0, 0, 0
	for rounds = 0; rounds < 20000; rounds++ {
		img, ok := game.PickImage()
		if !ok {
			break // every image retired: corpus fully labeled
		}
		// Fresh random strangers each round, as the matchmaker would pair.
		pa := worker.SampleProfile(popCfg, src)
		pb := worker.SampleProfile(popCfg, src)
		pa.ThinkMean, pb.ThinkMean = 0, 0
		a := worker.New("a", worker.Honest, pa, src)
		b := worker.New("b", worker.Honest, pb, src)
		if game.PlayRound(a, b, img).Agreed {
			agreed++
		}
	}
	for img := range corpus.Images {
		if game.Taboo().Retired(img) {
			retired++
		}
	}

	fmt.Printf("rounds played: %d, agreements: %d (%.1f%%)\n",
		rounds, agreed, 100*float64(agreed)/float64(rounds))
	fmt.Printf("images retired (fully labeled): %d/%d\n\n", retired, len(corpus.Images))

	fmt.Println("label precision by agreement threshold:")
	for k := 1; k <= 4; k++ {
		labels, good := 0, 0
		for img := range corpus.Images {
			for _, l := range game.Labels.LabelsFor(img) {
				if l.Count < k {
					continue
				}
				labels++
				if corpus.IsTrueTag(img, l.Word) {
					good++
				}
			}
		}
		if labels == 0 {
			fmt.Printf("  k=%d: no labels\n", k)
			continue
		}
		fmt.Printf("  k=%d: %5d labels, %.1f%% true\n", k, labels, 100*float64(good)/float64(labels))
	}

	// Show the richest-labeled image.
	best, bestN := 0, 0
	for img := range corpus.Images {
		if n := len(game.Labels.LabelsFor(img)); n > bestN {
			best, bestN = img, n
		}
	}
	fmt.Printf("\nrichest image (#%d) labels:", best)
	for _, l := range game.Labels.LabelsFor(best) {
		fmt.Printf(" %s(×%d)", corpus.Lexicon.Word(l.Word).Text, l.Count)
	}
	fmt.Println()

	// Output:
	// rounds played: 10962, agreements: 9247 (84.4%)
	// images retired (fully labeled): 400/400
	//
	// label precision by agreement threshold:
	//   k=1:  4100 labels, 40.9% true
	//   k=2:  2747 labels, 59.7% true
	//   k=3:  2400 labels, 66.1% true
	//   k=4: no labels
	//
	// richest image (#70) labels: ba(×3) da(×3) fa(×3) ga(×3) la(×3) ke(×3) ka(×2) fe(×2) pa(×1) ra(×1) va(×1) za(×1) be(×1) pe(×1) ze(×1) vi(×1) vo(×1) nu(×1) vu(×1) fiba(×1) doba(×1) moba(×1)
}
