package experiments

import (
	"time"

	"humancomp/internal/games"
	"humancomp/internal/sim"
)

// T5 reports cohort retention over a simulated week of ESP play: the
// fraction of players who come back N days after their first session.
// Retention is the mechanism behind the GWAP engagement numbers — ALP is
// an integral over exactly this curve — and the survey's argument that a
// *fun* task harvests orders of magnitude more work than a paid one rests
// on the tail of it. The sweep compares a sticky configuration (high
// return probability) against a bland one.
func T5(o Options) Result {
	res := Result{
		ID:     "T5",
		Title:  "Cohort retention over a simulated week (ESP crowd)",
		Header: []string{"config", "players", "day-1", "day-2", "day-3", "day-5", "ALP min"},
	}
	popSize := o.n(400, 40)
	horizon := 7 * 24 * time.Hour

	for i, arm := range []struct {
		name       string
		returnProb float64
	}{
		{"sticky (return 0.7)", 0.7},
		{"baseline (return 0.55)", 0.55},
		{"bland (return 0.3)", 0.3},
	} {
		corpus := expCorpus(o, uint64(970+10*i))
		cfg := games.DefaultESPConfig()
		cfg.Seed = o.Seed + uint64(971+10*i)
		cfg.RetireAt = 0
		cfg.ReplaySeed = o.Seed + uint64(972+10*i)

		ws := population(o, popSize, 2.8, uint64(980+10*i))
		for _, w := range ws {
			w.Profile.ReturnProb = arm.returnProb
		}
		cc := sim.DefaultCrowdConfig(ws, games.NewESP(corpus, cfg))
		cc.Horizon = horizon
		cc.BreakMean = 10 * time.Hour
		cc.Seed = o.Seed + uint64(990+10*i)
		crowd := sim.NewCrowd(cc, simStart)
		rep := crowd.Run()
		curve := crowd.Retention().Curve(5)
		res.AddRow(arm.name, d(crowd.Retention().Players()),
			pct(curve[1]), pct(curve[2]), pct(curve[3]), pct(curve[5]), f1(rep.ALPMinutes))
	}
	res.AddNote("shape: the retention curve orders with return probability, and ALP — the integral of the curve — orders with it")
	return res
}
