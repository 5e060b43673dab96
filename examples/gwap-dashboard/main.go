// gwap-dashboard: the operator's view of a running game. A simulated crowd
// plays the ESP Game for three days; the dashboard prints the GWAP metrics
// (throughput, ALP, expected contribution), the hourly output series, the
// cohort retention curve, and the points leaderboard — every instrument a
// deployed GWAP's operators watched.
//
//	go run ./examples/gwap-dashboard
package main

import (
	"fmt"
	"strings"
	"time"

	"humancomp/internal/games"
	"humancomp/internal/metrics"
	"humancomp/internal/score"
	"humancomp/internal/sim"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 3000
	corpus := vocab.NewCorpus(corpusCfg)

	espCfg := games.DefaultESPConfig()
	espCfg.RetireAt = 0
	espCfg.ReplaySeed = 7
	game := games.NewESP(corpus, espCfg)
	board := score.NewBoard(score.DefaultRules())
	hourly := metrics.NewTimeSeries(start, time.Hour)
	live := &dashboard{ESP: game, board: board, hourly: hourly}

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
	buckets := hourly.Buckets()
	fmt.Println("labels per 6h block:")
	blocks := []rune("▁▂▃▄▅▆▇█")
	var sixHour []float64
	for i := 0; i < len(buckets); i += 6 {
		sum := 0.0
		for j := i; j < i+6 && j < len(buckets); j++ {
			sum += buckets[j]
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

	// Leaderboard.
	fmt.Println("\ntop players:")
	for i, e := range board.Top(5) {
		fmt.Printf("  %d. %-8s %7d pts  (streak %d, %d rounds)\n",
			i+1, e.Player, e.Points, board.Streak(e.Player), board.Rounds(e.Player))
	}
}

// dashboard plays the game's live rounds and keeps the operator's books:
// each round scores both players on the leaderboard, and each agreement
// lands in the hourly label series at the crowd's virtual time.
type dashboard struct {
	*games.ESP
	board  *score.Board
	hourly *metrics.TimeSeries
	crowd  *sim.Crowd
}

func (d *dashboard) Play(a, b *worker.Worker) (int, time.Duration) {
	labels, took := d.ESP.Play(a, b)
	if labels > 0 {
		d.hourly.Add(d.crowd.Now(), 1)
	}
	d.board.RecordRound(a.ID, labels > 0, took)
	d.board.RecordRound(b.ID, labels > 0, took)
	return labels, took
}
