package experiments

import (
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/games"
	"humancomp/internal/rng"
	"humancomp/internal/worker"
)

// A4 evaluates the machine-partner extension (the survey line's proposed
// future work): pair ESP players with a trained classifier instead of a
// second human. Machines answer instantly, so human–machine rounds are
// faster per label; the question is what they cost in label precision and
// how machine–machine "play" (pure automation) compares. The sweep also
// varies classifier quality, since that is the knob vision progress turns.
func A4(o Options) Result {
	res := Result{
		ID:     "A4",
		Title:  "Extension: machine partners in the ESP Game",
		Header: []string{"pairing", "classifier acc", "agreement rate", "precision", "labels/human-hour"},
	}
	rounds := o.n(6000, 800)

	type arm struct {
		name       string
		machineAcc float64 // < 0 means no machine in the pair
		machines   int     // 0, 1 or 2 machines per pair
	}
	arms := []arm{
		{"human-human", -1, 0},
		{"human-machine", 0.5, 1},
		{"human-machine", 0.7, 1},
		{"human-machine", 0.9, 1},
		{"machine-machine", 0.7, 2},
	}

	for i, a := range arms {
		corpus := expCorpus(o, uint64(950+10*i))
		cfg := games.DefaultESPConfig()
		cfg.Seed = o.Seed + uint64(951+10*i)
		cfg.RetireAt = 0
		cfg.PromoteAfter = 1 << 30
		// Machines emit canonical class names; humans type synonyms, so
		// the pairing only works under intelligent matching.
		cfg.Mode = agree.Canonical
		g := games.NewESP(corpus, cfg)
		src := rng.New(o.Seed + uint64(952+10*i))
		popCfg := worker.DefaultPopulationConfig(2)

		newMachine := func() *worker.Worker {
			m := worker.New("m", worker.Machine, worker.Profile{Accuracy: a.machineAcc}, src)
			return m
		}

		agreed, good := 0, 0
		var humanTime time.Duration
		for r := 0; r < rounds; r++ {
			var p1, p2 *worker.Worker
			humansInPair := 2 - a.machines
			hp := worker.SampleProfile(popCfg, src)
			switch a.machines {
			case 0:
				hp2 := worker.SampleProfile(popCfg, src)
				p1 = worker.New("h1", worker.Honest, hp, src)
				p2 = worker.New("h2", worker.Honest, hp2, src)
			case 1:
				p1 = worker.New("h1", worker.Honest, hp, src)
				p2 = newMachine()
			default:
				p1, p2 = newMachine(), newMachine()
			}
			img := src.Intn(len(corpus.Images))
			out := g.PlayRound(p1, p2, img)
			humanTime += out.Duration * time.Duration(humansInPair)
			if out.Agreed {
				agreed++
				if corpus.IsTrueTag(img, out.Word) {
					good++
				}
			}
		}
		precision, perHour := 0.0, 0.0
		if agreed > 0 {
			precision = float64(good) / float64(agreed)
		}
		if humanTime > 0 {
			perHour = float64(agreed) / humanTime.Hours()
		}
		accLabel := "n/a"
		if a.machineAcc >= 0 {
			accLabel = f2c(a.machineAcc)
		}
		perHourLabel := "inf (no humans)"
		if humanTime > 0 {
			perHourLabel = f1(perHour)
		}
		res.AddRow(a.name, accLabel, pct(float64(agreed)/float64(rounds)), pct(precision), perHourLabel)
	}
	res.AddNote("shape: machine partners raise labels per human-hour (the machine's time is free) at a precision cost that shrinks as the classifier improves; machine-machine pairs are fast but replicate classifier errors")
	return res
}
