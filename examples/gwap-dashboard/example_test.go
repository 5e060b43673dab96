// Package gwapdashboard is the operator's view of a running game, run as a
// testable example:
//
//	go test -v -run Example ./examples/gwap-dashboard
package gwapdashboard

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"humancomp/internal/games"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// A simulated crowd plays the ESP Game for three days; the dashboard
// prints the GWAP metrics (throughput, ALP, expected contribution), the
// output series and the cohort retention curve — the instruments a
// deployed GWAP's operators watched.
func Example() {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 3000
	corpus := vocab.NewCorpus(corpusCfg)

	espCfg := games.DefaultESPConfig()
	espCfg.RetireAt = 0
	espCfg.ReplaySeed = 7
	game := games.NewESP(corpus, espCfg)
	live := &dashboard{ESP: game, start: start}

	players := worker.NewPopulation(worker.DefaultPopulationConfig(250))
	cfg := sim.DefaultCrowdConfig(players, live)
	cfg.Horizon = 3 * 24 * time.Hour
	cfg.BreakMean = 10 * time.Hour
	cfg.Solo = game
	crowd := sim.NewCrowd(cfg, start)
	live.crowd = crowd
	rep := crowd.Run()

	fmt.Println("═══ GWAP dashboard — ESP Game, 3 simulated days ═══")
	fmt.Printf("players %d   sessions %d   labels %d\n", rep.Players, rep.Sessions, rep.Outputs)
	fmt.Printf("throughput %.1f labels/human-hour   ALP %.1f min   expected contribution %.1f labels/player\n\n",
		rep.ThroughputPerHour, rep.ALPMinutes, rep.ExpectedContribution)

	// Hourly output sparkline (6-hour buckets for width).
	fmt.Println("labels per 6h block:")
	blocks := []rune("▁▂▃▄▅▆▇█")
	var sixHour []float64
	for i := 0; i < len(live.hourly); i += 6 {
		sum := 0.0
		for j := i; j < i+6 && j < len(live.hourly); j++ {
			sum += live.hourly[j]
		}
		sixHour = append(sixHour, sum)
	}
	maxV := 1.0
	for _, v := range sixHour {
		if v > maxV {
			maxV = v
		}
	}
	var bar strings.Builder
	for _, v := range sixHour {
		bar.WriteRune(blocks[int(v/maxV*float64(len(blocks)-1))])
	}
	fmt.Printf("  %s  (peak %.0f labels)\n\n", bar.String(), maxV)

	// Retention curve.
	curve := crowd.Retention().Curve(2)
	fmt.Println("cohort retention:")
	for day, frac := range curve {
		fmt.Printf("  day %d: %5.1f%%  %s\n", day, 100*frac, strings.Repeat("#", int(40*frac)))
	}

	// Output:
	// ═══ GWAP dashboard — ESP Game, 3 simulated days ═══
	// players 250   sessions 530   labels 20528
	// throughput 90.3 labels/human-hour   ALP 54.6 min   expected contribution 82.1 labels/player
	//
	// labels per 6h block:
	//   █▁▁▁▁▁▁▁▁▁▁▁  (peak 15764 labels)
	//
	// cohort retention:
	//   day 0: 100.0%  ########################################
	//   day 1:  20.4%  ########
	//   day 2:   6.4%  ##
}

// dashboard plays the game's live rounds and counts each agreement into
// the hourly label series at the crowd's virtual time.
type dashboard struct {
	*games.ESP
	start  time.Time
	hourly []float64
	crowd  *sim.Crowd
}

func (d *dashboard) Play(a, b *worker.Worker) (int, time.Duration) {
	labels, took := d.ESP.Play(a, b)
	if labels > 0 {
		d.count(d.crowd.Now())
	}
	return labels, took
}

// count adds one agreement to the hour of at, growing the series to it.
func (d *dashboard) count(at time.Time) {
	h := int(at.Sub(d.start) / time.Hour)
	for len(d.hourly) <= h {
		d.hourly = append(d.hourly, 0)
	}
	d.hourly[h]++
}

func TestDashboardCountsByHour(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	d := &dashboard{start: start}
	d.count(start)
	d.count(start.Add(59 * time.Minute))
	d.count(start.Add(90 * time.Minute))
	if !slices.Equal(d.hourly, []float64{2, 1}) {
		t.Fatalf("hourly = %v, want [2 1]", d.hourly)
	}
	// An agreement hours later opens the empty hours before it.
	d.count(start.Add(100 * time.Hour))
	if len(d.hourly) != 101 || d.hourly[99] != 0 || d.hourly[100] != 1 {
		t.Fatalf("hourly has %d buckets, last two %v", len(d.hourly), d.hourly[len(d.hourly)-2:])
	}
}
