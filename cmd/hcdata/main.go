// Command hcdata generates and inspects the synthetic datasets the
// simulator runs on.
//
//	hcdata -gen corpus.json -images 2000 -words 2000 -seed 7   # generate + export
//	hcdata -inspect corpus.json                                # summarize a corpus file
//	hcdata -label corpus.json -rounds 20000                    # run ESP over it, print label stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
	var (
		gen     = flag.String("gen", "", "generate a corpus and write it to this file")
		inspect = flag.String("inspect", "", "summarize the corpus in this file")
		label   = flag.String("label", "", "run a labeling pass over the corpus in this file")
		images  = flag.Int("images", 2000, "gen: number of images")
		words   = flag.Int("words", 2000, "gen: lexicon size")
		rounds  = flag.Int("rounds", 20000, "label: ESP rounds to play")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	switch {
	case *gen != "":
		generate(*gen, *images, *words, *seed)
	case *inspect != "":
		inspectCorpus(*inspect)
	case *label != "":
		labelCorpus(*label, *rounds, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(path string, images, words int, seed uint64) {
	cfg := vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: words, ZipfS: 1.0, SynonymRate: 0.2, Seed: seed},
		NumImages:   images,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        seed + 1,
	}
	c := vocab.NewCorpus(cfg)
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("hcdata: %v", err)
	}
	defer f.Close()
	if err := vocab.ExportCorpus(f, c, cfg.Lexicon); err != nil {
		log.Fatalf("hcdata: exporting: %v", err)
	}
	fmt.Printf("wrote %s: %d images over a %d-word lexicon (seed %d)\n", path, images, words, seed)
}

func load(path string) (*vocab.Corpus, vocab.LexiconConfig) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("hcdata: %v", err)
	}
	defer f.Close()
	c, lexCfg, err := vocab.ImportCorpus(f)
	if err != nil {
		log.Fatalf("hcdata: importing: %v", err)
	}
	return c, lexCfg
}

func inspectCorpus(path string) {
	c, lexCfg := load(path)
	objects, synonymGroups := 0, map[int]bool{}
	tagCounts := map[int]int{}
	for _, img := range c.Images {
		objects += len(img.Objects)
		for _, o := range img.Objects {
			can := c.Lexicon.Canonical(o.Tag)
			synonymGroups[can] = true
			tagCounts[can]++
		}
	}
	best, bestN := 0, 0
	for can, n := range tagCounts {
		if n > bestN {
			best, bestN = can, n
		}
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  images:          %d (canvas %dx%d)\n", len(c.Images), c.Images[0].Width, c.Images[0].Height)
	fmt.Printf("  lexicon:         %d words (seed %d)\n", lexCfg.Size, lexCfg.Seed)
	fmt.Printf("  objects:         %d (%.1f per image)\n", objects, float64(objects)/float64(len(c.Images)))
	fmt.Printf("  distinct concepts in use: %d\n", len(synonymGroups))
	fmt.Printf("  most common concept: %q in %d images\n", c.Lexicon.Word(best).Text, bestN)
}

func labelCorpus(path string, rounds int, seed uint64) {
	c, _ := load(path)
	cfg := games.DefaultESPConfig()
	cfg.Seed = seed
	cfg.RetireAt = 0
	g := games.NewESP(c, cfg)
	src := rng.New(seed + 1)
	popCfg := worker.DefaultPopulationConfig(2)
	agreed := 0
	for r := 0; r < rounds; r++ {
		pa := worker.SampleProfile(popCfg, src)
		pb := worker.SampleProfile(popCfg, src)
		pa.ThinkMean, pb.ThinkMean = 0, 0
		a := worker.New("a", worker.Honest, pa, src)
		b := worker.New("b", worker.Honest, pb, src)
		img, ok := g.PickImage()
		if !ok {
			break
		}
		if g.PlayRound(a, b, img).Agreed {
			agreed++
		}
	}
	good, total := 0, 0
	for img := range c.Images {
		for _, l := range g.Labels.LabelsFor(img) {
			total++
			if c.IsTrueTag(img, l.Word) {
				good++
			}
		}
	}
	fmt.Printf("played %d rounds: %d agreements, %d distinct labels on %d images\n",
		rounds, agreed, total, g.Labels.Items())
	if total > 0 {
		fmt.Printf("label precision: %.1f%%\n", 100*float64(good)/float64(total))
	}
}
