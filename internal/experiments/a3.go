package experiments

import (
	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// A3 is the assessment-stage ablation for Verbosity: repetition alone
// cannot screen popular-word free associations (they repeat too), so the
// deployed game added assessment rounds where raters vote on collected
// facts. The sweep varies the number of assessment votes per fact and
// reports precision and retained volume at each level.
func A3(o Options) Result {
	res := Result{
		ID:     "A3",
		Title:  "Ablation: Verbosity assessment votes per fact",
		Header: []string{"votes/fact", "facts retained", "precision", "true facts lost"},
	}
	fbCfg := vocab.DefaultFactBaseConfig()
	fbCfg.Lexicon.Seed = o.Seed + 900
	fbCfg.Seed = o.Seed + 901
	fb := vocab.NewFactBase(fbCfg)

	g := games.NewVerbosity(fb, o.Seed+902)

	src := rng.New(o.Seed + 903)
	narrator := worker.New("n", worker.Honest, worker.Profile{Accuracy: 0.85}, src)
	guesser := worker.New("g", worker.Honest, worker.Profile{Accuracy: 0.85}, src)

	// Collection phase: hammer a subject pool so facts accumulate counts.
	rounds := o.n(12000, 1500)
	subjects := o.n(60, 10)
	for i := 0; i < rounds; i++ {
		g.PlayRound(narrator, guesser, i%subjects)
	}
	collected := g.Facts.Confirmed(2)
	if len(collected) == 0 {
		res.AddNote("no facts collected; scale too small")
		return res
	}
	trueCollected := 0
	for _, f := range collected {
		if fb.IsTrue(f) {
			trueCollected++
		}
	}

	// Assessment phase, cumulative: each sweep level adds more raters.
	raters := make([]*worker.Worker, 7)
	for i := range raters {
		p := worker.SampleProfile(worker.DefaultPopulationConfig(8), src)
		p.ThinkMean = 0
		raters[i] = worker.New("r", worker.Honest, p, src)
	}
	votesSoFar := 0
	for _, votes := range []int{0, 1, 3, 5, 7} {
		for ; votesSoFar < votes; votesSoFar++ {
			for _, f := range collected {
				g.PlayAssessment(raters[votesSoFar], f)
			}
		}
		var retained []vocab.Fact
		if votes == 0 {
			retained = collected
		} else {
			retained = g.Facts.Verified(2, votes, 0.5)
		}
		trueRetained := 0
		for _, f := range retained {
			if fb.IsTrue(f) {
				trueRetained++
			}
		}
		precision := 0.0
		if len(retained) > 0 {
			precision = float64(trueRetained) / float64(len(retained))
		}
		res.AddRow(d(votes), d(len(retained)), pct(precision), d(trueCollected-trueRetained))
	}
	res.AddNote("shape: assessment raises precision toward the rater ceiling at a modest cost in lost true facts")
	return res
}
