package worker

import (
	"fmt"
	"time"

	"humancomp/internal/rng"
)

// PopulationConfig parameterizes a synthetic player population.
type PopulationConfig struct {
	Size int
	// ColluderFrac is the fraction of colluding players, in [0, 1]; the
	// rest are honest.
	ColluderFrac float64
	// ColludeWord is the scripted answer shared by all colluders.
	ColludeWord int
	// MeanAccuracy and AccuracySD shape the honest skill distribution
	// (normal, clamped to [0.5, 0.99]).
	MeanAccuracy float64
	AccuracySD   float64
	Seed         uint64
}

// DefaultPopulationConfig returns the honest population used by most
// experiments: skill centered at 0.85 as in the ESP Game evaluation, think
// time of a few seconds per guess, and heavy-tailed sessions whose
// parameters put median lifetime play in the tens of minutes.
func DefaultPopulationConfig(size int) PopulationConfig {
	return PopulationConfig{
		Size:         size,
		MeanAccuracy: 0.85,
		AccuracySD:   0.08,
		Seed:         1,
	}
}

// NewPopulation builds a deterministic population from cfg.
func NewPopulation(cfg PopulationConfig) []*Worker {
	if cfg.Size <= 0 {
		panic("worker: population size must be positive")
	}
	if !(cfg.ColluderFrac >= 0 && cfg.ColluderFrac <= 1) { // NaN too
		panic("worker: colluder fraction must lie in [0, 1]")
	}
	src := rng.New(cfg.Seed)
	ws := make([]*Worker, cfg.Size)
	nCollude := int(float64(cfg.Size) * cfg.ColluderFrac)
	for i := range ws {
		b := Honest
		if i < nCollude {
			b = Colluder
		}
		ws[i] = New(fmt.Sprintf("p%05d", i), b, SampleProfile(cfg, src), src)
		ws[i].ColludeWord = cfg.ColludeWord
	}
	// Shuffle so colluders are not clustered at the front of the roster;
	// the matchmaker experiments pair players by roster position.
	src.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// SampleProfile draws one player profile from the population distribution.
func SampleProfile(cfg PopulationConfig, src *rng.Source) Profile {
	acc := src.Norm(cfg.MeanAccuracy, cfg.AccuracySD)
	if acc < 0.5 {
		acc = 0.5
	}
	if acc > 0.99 {
		acc = 0.99
	}
	return Profile{
		Accuracy:    acc,
		SynonymRate: 0.15,
		TypoRate:    0.03,
		// ~2.5s per guess: deployed ESP pairs labeled an image roughly
		// every 10 seconds, which needs fast typing with early matches.
		ThinkMean: 2500 * time.Millisecond,
		// exp(2.8) ≈ 16.4 min median session; sigma 0.9 gives the long tail.
		SessionMu:    2.8,
		SessionSigma: 0.9,
		ReturnProb:   0.55,
	}
}
