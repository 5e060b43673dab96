// Package quickstart labels a synthetic image corpus with the ESP Game,
// run as a testable example:
//
//	go test -v -run Example ./examples/quickstart
package quickstart

import (
	"fmt"
	"time"

	"humancomp/internal/games"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Label a synthetic image corpus with the ESP Game and a simulated
// crowd, then print the labels collected for a few images.
func Example() {
	// A synthetic world: images with ground-truth objects over a Zipfian
	// lexicon (the stand-in for a real photo collection).
	corpus := vocab.NewCorpus(vocab.DefaultCorpusConfig())

	// The ESP Game over that corpus, with deployed-style taboo rules.
	espCfg := games.DefaultESPConfig()
	espCfg.ReplaySeed = 7
	game := games.NewESP(corpus, espCfg)

	// A crowd of 200 simulated players runs for 6 simulated hours.
	players := worker.NewPopulation(worker.DefaultPopulationConfig(200))
	cfg := sim.DefaultCrowdConfig(players, game)
	cfg.Horizon = 6 * time.Hour
	cfg.Solo = game // lone players get a pre-recorded partner
	report := sim.NewCrowd(cfg, time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)).Run()

	fmt.Printf("crowd: %d players, %d sessions, %.1f human-hours of play\n",
		report.Players, report.Sessions, report.TotalPlayHours)
	fmt.Printf("labels collected: %d (%.1f per human-hour)\n\n",
		report.Outputs, report.ThroughputPerHour)

	for img := 0; img < 3; img++ {
		fmt.Printf("image %d labels:", img)
		for _, l := range game.Labels.LabelsFor(img) {
			mark := " "
			if corpus.IsTrueTag(img, l.Word) {
				mark = "*" // matches ground truth
			}
			fmt.Printf("  %s%s(×%d)", mark, corpus.Lexicon.Word(l.Word).Text, l.Count)
		}
		fmt.Println()
	}
	fmt.Println("\n(* = label names a real object in the image)")

	// Output:
	// crowd: 200 players, 265 sessions, 108.4 human-hours of play
	// labels collected: 12000 (110.7 per human-hour)
	//
	// image 0 labels:   ba(×1)   da(×1)   ka(×1)   la(×1)  *zada(×1)  *kofa(×1)
	// image 1 labels:  *ba(×1)   da(×1)  *fa(×1)  *pa(×1)  *di(×1)  *kaba(×1)
	// image 2 labels:   ba(×1)  *da(×1)   ke(×1)  *nu(×1)  *viba(×1)  *pepe(×1)
	//
	// (* = label names a real object in the image)
}
