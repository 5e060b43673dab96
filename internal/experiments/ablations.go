package experiments

import (
	"time"

	"humancomp/internal/games"
	"humancomp/internal/match"
	"humancomp/internal/metrics"
	"humancomp/internal/rng"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// A1 is the agreement-mechanism ablation: the same population plays the
// three GWAP templates for the same simulated horizon, and we compare
// validated outputs per human-hour against the precision of those outputs.
// The templates trade off exactly as the taxonomy predicts: output
// agreement is fast, the inversion problem is slower but collects richer
// structures, input agreement sits between.
func A1(o Options) Result {
	res := Result{
		ID:     "A1",
		Title:  "Mechanism ablation: throughput vs precision on one corpus",
		Header: []string{"mechanism", "game", "outputs", "throughput/h", "precision"},
	}
	popSize := o.n(400, 40)
	horizon := 12 * time.Hour

	corpus := expCorpus(o, 800)
	fbCfg := vocab.FactBaseConfig{Lexicon: vocab.DefaultLexiconConfig(), FactsPerWord: 5, Seed: o.Seed + 801}
	fbCfg.Lexicon.Seed = o.Seed + 810
	fb := vocab.NewFactBase(fbCfg)

	// Output agreement: ESP, with taboo off — the taboo knob is studied in
	// F2 and would otherwise handicap this mechanism's precision here.
	espCfg := games.DefaultESPConfig()
	espCfg.Seed = o.Seed + 802
	espCfg.RetireAt = 0
	espCfg.PromoteAfter = 1 << 30
	espCfg.ReplaySeed = o.Seed + 803
	espGame := games.NewESP(corpus, espCfg)
	espRep := runCrowd(o, popSize, espGame, horizon, 820)
	espPrecision := labelPrecision(corpus, espGame)
	res.AddRow("output agreement", "esp", d64(espRep.Outputs), f1(espRep.ThroughputPerHour), pct(espPrecision))

	// Input agreement: TagATune.
	ttGame := games.NewTagATune(corpus, o.Seed+804)
	ttRep := runCrowd(o, popSize, ttGame, horizon, 830)
	ttPrecision := annotationPrecision(corpus, ttGame)
	res.AddRow("input agreement", "tagatune", d64(ttRep.Outputs), f1(ttRep.ThroughputPerHour), pct(ttPrecision))

	// Inversion problem: Verbosity.
	vbGame := games.NewVerbosity(fb, o.Seed+805)
	vbRep := runCrowd(o, popSize, vbGame, horizon, 840)
	vbPrecision := factPrecision(fb, vbGame)
	res.AddRow("inversion problem", "verbosity", d64(vbRep.Outputs), f1(vbRep.ThroughputPerHour), pct(vbPrecision))

	res.AddNote("outputs differ in kind (labels / validated descriptions / facts); the claim is the throughput-vs-precision trade, not identical units")
	return res
}

func runCrowd(o Options, popSize int, game sim.PairGame, horizon time.Duration, seedOff uint64) metrics.Report {
	ws := population(o, popSize, 2.8, seedOff)
	cfg := sim.DefaultCrowdConfig(ws, game)
	cfg.Horizon = horizon
	cfg.Seed = o.Seed + seedOff
	return sim.NewCrowd(cfg, simStart).Run()
}

func labelPrecision(corpus *vocab.Corpus, g *games.ESP) float64 {
	good, total := 0, 0
	for img := range corpus.Images {
		for _, l := range g.Labels.LabelsFor(img) {
			total += l.Count
			if corpus.IsTrueTag(img, l.Word) {
				good += l.Count
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

func annotationPrecision(corpus *vocab.Corpus, g *games.TagATune) float64 {
	good, total := 0, 0
	for img := range corpus.Images {
		image := corpus.Image(img)
		seen := map[int]bool{}
		for _, obj := range image.Objects {
			can := corpus.Lexicon.Canonical(obj.Tag)
			if seen[can] {
				continue
			}
			seen[can] = true
			good += g.Annotations.Count(img, obj.Tag)
		}
	}
	total = g.Annotations.Total()
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

func factPrecision(fb *vocab.FactBase, g *games.Verbosity) float64 {
	good, total := 0, 0
	for _, f := range g.Facts.Confirmed(1) {
		c := g.Facts.Count(f)
		total += c
		if fb.IsTrue(f) {
			good += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// A2 is the replay ablation: rounds play against a pre-recorded partner
// with probability f. Replay keeps the game alive but can only re-confirm
// recorded vocabulary, so the share of *new* concepts per image falls as f
// rises, while precision holds (the transcripts were made by honest
// players).
func A2(o Options) Result {
	res := Result{
		ID:     "A2",
		Title:  "Replay-partner ablation: freshness and precision vs replay fraction",
		Header: []string{"replay fraction", "agreement rate", "precision", "new-concept share"},
	}
	rounds := o.n(6000, 600)
	popCfg := worker.DefaultPopulationConfig(2)

	for i, fracReplay := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		corpus := expCorpus(o, 850)
		cfg := games.DefaultESPConfig()
		cfg.Seed = o.Seed + uint64(851+i)
		cfg.PromoteAfter = 1 << 30
		cfg.RetireAt = 0
		g := games.NewESP(corpus, cfg)
		src := rng.New(o.Seed + uint64(860+i))
		store := match.NewReplayStore(src, 8)

		// Warm the store with live rounds (not counted).
		for r := 0; r < rounds/4; r++ {
			a, b := freshPair(src, popCfg)
			img := src.Intn(len(corpus.Images))
			out := g.PlayRound(a, b, img)
			if len(out.Guesses[0]) > 0 {
				store.Record(match.ReplaySession{Item: img, Player: "warm", Words: out.Guesses[0]})
			}
		}

		agreed, total := 0, 0
		good := 0
		newConcept := 0
		seen := map[[2]int]bool{}
		for r := 0; r < rounds; r++ {
			img := src.Intn(len(corpus.Images))
			a, b := freshPair(src, popCfg)
			var out games.ESPRound
			if src.Bool(fracReplay) {
				sess, ok := store.Get(img)
				if !ok {
					continue
				}
				out = g.PlayRoundReplay(a, sess)
			} else {
				out = g.PlayRound(a, b, img)
			}
			total++
			if !out.Agreed {
				continue
			}
			agreed++
			if corpus.IsTrueTag(img, out.Word) {
				good++
			}
			key := [2]int{img, corpus.Lexicon.Canonical(out.Word)}
			if !seen[key] {
				seen[key] = true
				newConcept++
			}
		}
		if total == 0 {
			res.AddRow(f2c(fracReplay), "n/a", "n/a", "n/a")
			continue
		}
		agrRate := float64(agreed) / float64(total)
		precision, freshShare := 0.0, 0.0
		if agreed > 0 {
			precision = float64(good) / float64(agreed)
			freshShare = float64(newConcept) / float64(agreed)
		}
		res.AddRow(f2c(fracReplay), pct(agrRate), pct(precision), pct(freshShare))
	}
	res.AddNote("published shape: replay preserves precision and availability but contributes fewer first-time concepts")
	return res
}
