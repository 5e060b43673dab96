package sim

import (
	"testing"
	"time"

	"humancomp/internal/games"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func espGame(tb testing.TB, seed uint64) *games.ESP {
	tb.Helper()
	c := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 400, ZipfS: 1, SynonymRate: 0.25, Seed: 1},
		NumImages:   500,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
	cfg := games.DefaultESPConfig()
	cfg.Seed = seed
	cfg.ReplaySeed = seed
	return games.NewESP(c, cfg)
}

func TestCrowdProducesPlayAndOutputs(t *testing.T) {
	ws := worker.NewPopulation(worker.DefaultPopulationConfig(60))
	cfg := DefaultCrowdConfig(ws, espGame(t, 3))
	cfg.Horizon = 8 * time.Hour
	crowd := NewCrowd(cfg, t0)
	rep := crowd.Run()

	if rep.Players == 0 || rep.Sessions == 0 {
		t.Fatalf("no play recorded: %+v", rep)
	}
	if rep.Outputs == 0 {
		t.Fatal("no outputs produced")
	}
	if rep.TotalPlayHours <= 0 {
		t.Fatal("no play time accumulated")
	}
	if rep.ThroughputPerHour <= 0 || rep.ALPMinutes <= 0 {
		t.Fatalf("degenerate metrics: %+v", rep)
	}
	// Sanity: expected contribution = throughput × ALP.
	want := rep.ThroughputPerHour * rep.ALPMinutes / 60
	if diff := rep.ExpectedContribution - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("expected contribution inconsistent: %v vs %v", rep.ExpectedContribution, want)
	}
}

func TestCrowdDeterministic(t *testing.T) {
	run := func() any {
		ws := worker.NewPopulation(worker.DefaultPopulationConfig(30))
		cfg := DefaultCrowdConfig(ws, espGame(t, 7))
		cfg.Horizon = 4 * time.Hour
		cfg.Seed = 42
		return NewCrowd(cfg, t0).Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("crowd runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSoloFallbackRescuesOddPlayer(t *testing.T) {
	// One player alone: without solo fallback they can never play.
	mkCfg := func(game *games.ESP, solo bool) CrowdConfig {
		ws := worker.NewPopulation(worker.DefaultPopulationConfig(1))
		cfg := DefaultCrowdConfig(ws, game)
		cfg.Horizon = 6 * time.Hour
		if solo {
			cfg.Solo = game
		}
		return cfg
	}

	// Seed the replay store with a real two-player run first; the solo
	// run below scores only against its transcripts.
	game := espGame(t, 9)
	ws2 := worker.NewPopulation(worker.DefaultPopulationConfig(10))
	warm := DefaultCrowdConfig(ws2, game)
	warm.Horizon = 4 * time.Hour
	NewCrowd(warm, t0).Run()

	repNoSolo := NewCrowd(mkCfg(game, false), t0).Run()
	repSolo := NewCrowd(mkCfg(game, true), t0).Run()
	if repNoSolo.Outputs != 0 {
		t.Fatalf("lone player produced %d outputs without solo mode", repNoSolo.Outputs)
	}
	if repSolo.Outputs == 0 {
		t.Fatal("solo fallback produced no outputs")
	}
}

func TestMoreWorkersMoreThroughputTotal(t *testing.T) {
	run := func(n int) int64 {
		ws := worker.NewPopulation(worker.DefaultPopulationConfig(n))
		cfg := DefaultCrowdConfig(ws, espGame(t, 13))
		cfg.Horizon = 4 * time.Hour
		return NewCrowd(cfg, t0).Run().Outputs
	}
	small, big := run(10), run(80)
	if big <= small {
		t.Errorf("outputs did not scale with population: %d (10 workers) vs %d (80 workers)", small, big)
	}
}

func TestCrowdPanics(t *testing.T) {
	ws := worker.NewPopulation(worker.DefaultPopulationConfig(2))
	ad := espGame(t, 15)
	for name, cfg := range map[string]CrowdConfig{
		"no workers":   {Game: ad, Horizon: time.Hour},
		"no game":      {Workers: ws, Horizon: time.Hour},
		"zero horizon": {Workers: ws, Game: ad},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			NewCrowd(cfg, t0)
		}()
	}
}

func BenchmarkCrowdHour(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		ws := worker.NewPopulation(worker.DefaultPopulationConfig(50))
		cfg := DefaultCrowdConfig(ws, espGame(b, uint64(i+1)))
		cfg.Horizon = time.Hour
		NewCrowd(cfg, t0).Run()
	}
}

func TestCrowdRetentionTracked(t *testing.T) {
	ws := worker.NewPopulation(worker.DefaultPopulationConfig(40))
	cfg := DefaultCrowdConfig(ws, espGame(t, 17))
	cfg.Horizon = 72 * time.Hour // three days so returns land on later days
	cfg.BreakMean = 12 * time.Hour
	crowd := NewCrowd(cfg, t0)
	crowd.Run()
	ret := crowd.Retention()
	if ret.Players() == 0 {
		t.Fatal("no players tracked")
	}
	curve := ret.Curve(2)
	if curve[0] != 1 {
		t.Fatalf("day-0 retention = %v", curve[0])
	}
	// With ReturnProb 0.55 and 12h mean breaks, some but not all players
	// come back on later days.
	if curve[1] <= 0 || curve[1] >= 1 {
		t.Errorf("day-1 retention = %v; expected a genuine fraction", curve[1])
	}
}
