package experiments

import (
	"time"

	"humancomp/internal/games"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

var simStart = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

// expCorpus builds the shared image corpus for an experiment run.
func expCorpus(o Options, seedOffset uint64) *vocab.Corpus {
	cfg := vocab.DefaultCorpusConfig()
	cfg.NumImages = o.n(4000, 200)
	cfg.Lexicon.Seed = o.Seed + seedOffset
	cfg.Seed = o.Seed + seedOffset + 1
	return vocab.NewCorpus(cfg)
}

// population builds an honest population with a game-specific engagement
// profile: sessionMu controls how long people keep playing, the knob
// behind the published ALP differences between the games.
func population(o Options, size int, sessionMu float64, seedOffset uint64) []*worker.Worker {
	cfg := worker.DefaultPopulationConfig(size)
	cfg.Seed = o.Seed + seedOffset
	ws := worker.NewPopulation(cfg)
	for _, w := range ws {
		w.Profile.SessionMu = sessionMu
	}
	return ws
}

// T1 reproduces the GWAP metrics table: throughput (outputs per human-hour),
// ALP (average lifetime play) and expected contribution for each game,
// measured from a simulated day of crowd play.
func T1(o Options) Result {
	res := Result{
		ID:     "T1",
		Title:  "GWAP metrics per game (simulated crowd)",
		Header: []string{"game", "players", "sessions", "outputs", "throughput/h", "ALP min", "expected contribution"},
	}
	popSize := o.n(800, 40)
	horizon := 24 * time.Hour

	type entry struct {
		name      string
		sessionMu float64 // engagement knob; ESP was the stickiest game
		game      sim.PairGame
	}
	corpus := expCorpus(o, 10)
	// ESP gets a large rotating corpus of its own: the deployed game kept
	// the image stream fresh relative to play volume, and a small corpus
	// would let taboo accumulation throttle throughput (that effect is
	// measured separately in F2).
	espCorpusCfg := vocab.DefaultCorpusConfig()
	espCorpusCfg.NumImages = o.n(24000, 1200)
	espCorpusCfg.Lexicon.Seed = o.Seed + 11
	espCorpusCfg.Seed = o.Seed + 12
	espCorpus := vocab.NewCorpus(espCorpusCfg)
	fb := vocab.NewFactBase(vocab.FactBaseConfig{
		Lexicon:      vocab.DefaultLexiconConfig(),
		FactsPerWord: 5,
		Seed:         o.Seed + 20,
	})

	espCfg := games.DefaultESPConfig()
	espCfg.Seed = o.Seed + 30
	espCfg.ReplaySeed = o.Seed + 40
	espCfg.RetireAt = 0 // a day of play must not exhaust the corpus

	// Session engagement (log-normal mu, in log-minutes) is calibrated to
	// the published ALP ordering: ESP was the stickiest game (~91 min
	// lifetime play), Peekaboom close behind (~72), Verbosity brief (~23).
	entries := []entry{
		{"esp", 3.4, games.NewESP(espCorpus, espCfg)},
		{"peekaboom", 3.2, games.NewPeekaboom(corpus, o.Seed+31)},
		{"verbosity", 2.1, games.NewVerbosity(fb, o.Seed+32)},
		{"tagatune", 2.7, games.NewTagATune(corpus, o.Seed+33)},
		{"matchin", 2.5, games.NewMatchin(corpus, o.Seed+34)},
		{"squigl", 2.4, games.NewSquigl(corpus, o.Seed+35)},
		{"phetch", 2.6, games.NewPhetch(corpus, games.GroundTruthIndex(corpus), o.Seed+36)},
	}

	for i, e := range entries {
		ws := population(o, popSize, e.sessionMu, uint64(50+i))
		cfg := sim.DefaultCrowdConfig(ws, e.game)
		cfg.Horizon = horizon
		cfg.Seed = o.Seed + uint64(60+i)
		if solo, ok := e.game.(sim.SoloGame); ok {
			cfg.Solo = solo
		}
		rep := sim.NewCrowd(cfg, simStart).Run()
		res.AddRow(e.name, d(rep.Players), d64(rep.Sessions), d64(rep.Outputs),
			f1(rep.ThroughputPerHour), f1(rep.ALPMinutes), f1(rep.ExpectedContribution))
	}
	res.AddNote("published shape: ESP ≈ 233 labels/h with the longest ALP (~91 min); Verbosity trades shorter ALP (~23 min) for multi-fact rounds")
	res.AddNote("outputs: esp=labels, peekaboom=objects located, verbosity=facts, tagatune=validated descriptions, matchin=agreed comparisons, squigl=agreed outlines, phetch=validated captions")
	return res
}
