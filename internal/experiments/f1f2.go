package experiments

import (
	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/worker"
)

// freshPair draws a new honest player pair; every round in F1/F2 uses fresh
// strangers, as random matching would deliver on a busy site.
func freshPair(src *rng.Source, popCfg worker.PopulationConfig) (*worker.Worker, *worker.Worker) {
	pa := worker.SampleProfile(popCfg, src)
	pb := worker.SampleProfile(popCfg, src)
	pa.ThinkMean, pb.ThinkMean = 0, 0 // durations are irrelevant here
	return worker.New("a", worker.Honest, pa, src), worker.New("b", worker.Honest, pb, src)
}

// F1 reproduces the agreement-threshold figure: the fraction of collected
// labels that are true, bucketed by how many independent player pairs
// agreed on them. The published claim: ~85% of labels are good at a single
// agreement, approaching 100% as the threshold rises.
func F1(o Options) Result {
	res := Result{
		ID:     "F1",
		Title:  "ESP label precision vs agreement count threshold",
		Header: []string{"threshold k", "labels >= k", "true fraction"},
	}
	corpus := expCorpus(o, 200)
	cfg := games.DefaultESPConfig()
	cfg.Seed = o.Seed + 201
	cfg.PromoteAfter = 1 << 30 // never taboo: we want repeat agreements
	cfg.RetireAt = 0
	g := games.NewESP(corpus, cfg)

	src := rng.New(o.Seed + 202)
	popCfg := worker.DefaultPopulationConfig(2)
	images := o.n(1000, 100)
	roundsPerImage := 12
	for img := 0; img < images && img < len(corpus.Images); img++ {
		for r := 0; r < roundsPerImage; r++ {
			a, b := freshPair(src, popCfg)
			g.PlayRound(a, b, img)
		}
	}

	for k := 1; k <= 6; k++ {
		labels, trueLabels := 0, 0
		for img := 0; img < images && img < len(corpus.Images); img++ {
			for _, l := range g.Labels.LabelsFor(img) {
				if l.Count < k {
					continue
				}
				labels++
				if corpus.IsTrueTag(img, l.Word) {
					trueLabels++
				}
			}
		}
		frac := 0.0
		if labels > 0 {
			frac = float64(trueLabels) / float64(labels)
		}
		res.AddRow(d(k), d(labels), pct(frac))
	}
	res.AddNote("published shape: ≥85%% true at k=1, monotonically rising toward 100%%")
	return res
}

// F2 reproduces the taboo-diversity figure: with the taboo mechanism on,
// every agreement bars its word from the image, forcing later pairs past
// the obvious labels. Sweeping the maximum taboo-list size from 0 (taboo
// off — pairs keep re-agreeing on the head label) upward raises the number
// of distinct labels collected per image, at a cost in agreement rate.
func F2(o Options) Result {
	res := Result{
		ID:     "F2",
		Title:  "Label diversity vs taboo list size",
		Header: []string{"taboo cap", "agreement rate", "distinct labels/image", "fresh-label share"},
	}
	images := o.n(500, 60)
	roundsPerImage := 10
	popCfg := worker.DefaultPopulationConfig(2)

	for _, tabooN := range []int{0, 1, 2, 4, 6} {
		corpus := expCorpus(o, 210) // same corpus at every sweep point, fresh game
		cfg := games.DefaultESPConfig()
		cfg.Seed = o.Seed + 211
		cfg.RetireAt = 0
		if tabooN == 0 {
			cfg.PromoteAfter = 1 << 30 // taboo mechanism off
		} else {
			cfg.PromoteAfter = 1
		}
		g := games.NewESP(corpus, cfg)
		g.Taboo().SetMaxPerItem(tabooN)
		src := rng.New(o.Seed + uint64(212+tabooN))

		agreed, rounds := 0, 0
		fresh := 0
		distinct := make(map[int]map[int]bool)
		for img := 0; img < images && img < len(corpus.Images); img++ {
			for r := 0; r < roundsPerImage; r++ {
				a, b := freshPair(src, popCfg)
				out := g.PlayRound(a, b, img)
				rounds++
				if !out.Agreed {
					continue
				}
				agreed++
				m := distinct[img]
				if m == nil {
					m = make(map[int]bool)
					distinct[img] = m
				}
				m[corpus.Lexicon.Canonical(out.Word)] = true
				// A label is "fresh" when it is not one of the image's
				// most salient concepts — the tail the taboo mechanism is
				// designed to reach.
				objs := corpus.Image(img).Objects
				isHead := false
				for i := 0; i < 2 && i < len(objs); i++ {
					if corpus.Lexicon.AreSynonyms(objs[i].Tag, out.Word) {
						isHead = true
					}
				}
				if !isHead {
					fresh++
				}
			}
		}
		sum := 0
		for _, m := range distinct {
			sum += len(m)
		}
		meanDistinct := float64(sum) / float64(images)
		freshShare := 0.0
		if agreed > 0 {
			freshShare = float64(fresh) / float64(agreed)
		}
		res.AddRow(d(tabooN), pct(float64(agreed)/float64(rounds)), f2c(meanDistinct), pct(freshShare))
	}
	res.AddNote("published shape: diversity and fresh-label share rise with taboo size; agreement rate (throughput) pays for it")
	return res
}
